"""MCMC validation of optimizations (Section 4, Equations 13-15).

The validator searches the *input* space of a (target, rewrite) pair for
the test case that maximizes their ULP error ``err(R; T, t)``.  By
Theorem 1, in the limit the chain samples test cases in proportion to the
error value, so the maximum is found — and found more often than any
other value.  Termination uses the Geweke mixing diagnostic: once the
chain of observed errors looks stationary, the largest sample is reported
as the bound on the optimization's rounding error.

This is *validation*, not verification: the bound comes with an
asymptotic guarantee and strong evidence, not a proof.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.x86.checkpoint import union_writes
from repro.x86.memory import Memory
from repro.x86.program import Program
from repro.x86.state import MachineState
from repro.x86.testcase import TestCase

from repro.core.backends import resolve_backend
from repro.core.cost import location_ulp_distance
from repro.core.runner import Location, Runner
from repro.validation.geweke import geweke_z
from repro.validation.proposals import TestCaseProposer
from repro.validation.strategies import ValidationMcmc, ValidationStrategy

# err(R;T,t) contribution of divergent signal behaviour: ">eta" for every
# eta (Equation 13) — larger than any representable ULP distance.
SIGNAL_ERR = 2.0 ** 80


@dataclass(frozen=True)
class ValidationConfig:
    """Knobs of one validation run (paper defaults, scaled down)."""

    eta: float = 0.0
    max_proposals: int = 50_000
    min_samples: int = 2_000
    check_interval: int = 1_000
    z_threshold: float = 1.96
    sigma_fraction: float = 0.05
    seed: int = 0
    trace_points: int = 64
    keep_chain: bool = False
    # Upper bound on the speculative evaluation block (see
    # :meth:`Validator.validate`).  1 disables speculation and evaluates
    # one proposal per executor call, exactly as the scalar chain did.
    # None (the default) speculates only for strategies whose proposals
    # are independent of the chain state (``uniform_proposals``), where
    # blocking provably cannot change the realized sample stream; chain
    # strategies stay scalar unless a block size is set explicitly,
    # because their realized path (same chain law, different draws)
    # depends on the block size.
    max_block: Optional[int] = None


# Block size used when max_block is None and the strategy's proposals
# are chain-independent (pure batching, bit-identical results).
DEFAULT_UNIFORM_BLOCK = 64


@dataclass
class ValidationResult:
    """Outcome of a validation run."""

    max_err: float
    argmax: Optional[TestCase]
    samples: int
    converged: bool
    passed: bool
    z_scores: List[Tuple[int, float]] = field(default_factory=list)
    trace: List[Tuple[int, float]] = field(default_factory=list)
    # Log-compressed error chain, kept when config.keep_chain is set
    # (used by the multi-chain R-hat diagnostic).
    chain: Optional[List[float]] = None
    # Speculative-block accounting: proposals actually executed vs.
    # executed-but-discarded (drawn after an accept invalidated the rest
    # of their block, or after the Geweke break).
    evaluations: int = 0
    wasted: int = 0

    def to_dict(self) -> dict:
        """Versioned JSON-safe document (see :mod:`repro.core.serialize`)."""
        from repro.core.serialize import validation_result_to_dict

        return validation_result_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict, segments=()) -> "ValidationResult":
        from repro.core.serialize import validation_result_from_dict

        return validation_result_from_dict(data, segments)


@dataclass
class ValidationCheckpoint:
    """Exact mid-chain state of one validation run.

    Captured at speculative-block boundaries, where the chain state is
    consistent; resuming reproduces the uninterrupted run's sample
    stream bit-for-bit (the RNG state, the chain's current point, and
    the EWMA block-sizing state are all part of the capture).  Test
    cases serialize as live-in bits only — memory segments are
    reconstructed from the validator's base test case on resume.
    """

    iteration: int
    rng_state: tuple
    current_inputs: dict
    current_err: float
    max_err: float
    argmax_inputs: Optional[dict]
    chain: List[float]
    z_scores: List[Tuple[int, float]]
    trace: List[Tuple[int, float]]
    evaluations: int
    accept_rate: float
    # Config echo checked by resume.
    seed: int = 0
    max_proposals: int = 0

    def to_dict(self) -> dict:
        from repro.core import serialize as S

        return {
            "version": S.SCHEMA_VERSION,
            "kind": "validation_checkpoint",
            "iteration": self.iteration,
            "rng_state": S.enc_rng_state(self.rng_state),
            "current_inputs": {k: v for k, v in self.current_inputs.items()},
            "current_err": S.enc_float(self.current_err),
            "max_err": S.enc_float(self.max_err),
            "argmax_inputs": self.argmax_inputs,
            "chain": [S.enc_float(v) for v in self.chain],
            "z_scores": [[i, S.enc_float(z)] for i, z in self.z_scores],
            "trace": [[i, S.enc_float(e)] for i, e in self.trace],
            "evaluations": self.evaluations,
            "accept_rate": self.accept_rate,
            "seed": self.seed,
            "max_proposals": self.max_proposals,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ValidationCheckpoint":
        from repro.core import serialize as S

        S.check_version(data, "ValidationCheckpoint")
        return cls(
            iteration=int(data["iteration"]),
            rng_state=S.dec_rng_state(data["rng_state"]),
            current_inputs=dict(data["current_inputs"]),
            current_err=S.dec_float(data["current_err"]),
            max_err=S.dec_float(data["max_err"]),
            argmax_inputs=None if data["argmax_inputs"] is None
            else dict(data["argmax_inputs"]),
            chain=[S.dec_float(v) for v in data["chain"]],
            z_scores=[(int(i), S.dec_float(z)) for i, z in data["z_scores"]],
            trace=[(int(i), S.dec_float(e)) for i, e in data["trace"]],
            evaluations=int(data["evaluations"]),
            accept_rate=float(data["accept_rate"]),
            seed=int(data["seed"]),
            max_proposals=int(data["max_proposals"]),
        )


@dataclass
class MultiChainResult:
    """Outcome of a multi-chain validation run."""

    max_err: float
    passed: bool
    r_hat: float
    chains: List[ValidationResult] = field(default_factory=list)


class _ProposalStates:
    """Reusable machine states for speculative validation blocks.

    Validation proposals are throwaway test cases: each is executed twice
    (target, rewrite) and discarded, so the per-test pooled-state
    machinery of :class:`TestCase` pays a fresh ``build_state`` per
    proposal — about half the validator's runtime.  This pool instead
    keeps one pristine state per block slot (no live-ins applied) and,
    per use, resets only the slots the two programs can have dirtied
    (their union write set on compiled backends, which never write the
    status flags; a full restore on the emulator) before writing the
    proposal's live-in values directly.
    All proposals drawn from one base test case share its segments, so
    the pristine image never changes.
    """

    __slots__ = ("segments", "_writes", "_states", "_snapshots")

    def __init__(self, segments, writes):
        self.segments = segments
        self._writes = writes  # union write set, or None => full restore
        self._states: List[MachineState] = []
        self._snapshots: List[tuple] = []

    def _grow(self) -> None:
        mem = Memory(seg.copy() if seg.writable else seg
                     for seg in self.segments)
        state = MachineState(mem)
        self._states.append(state)
        # Snapshots are per-state: a memory snapshot restores into the
        # segment objects it was captured from.
        self._snapshots.append(state.snapshot())

    def states_for(self, tests: Sequence[TestCase]) -> List[MachineState]:
        """One reset state per test, live-ins applied, aligned with
        ``tests``.  Valid until the next ``states_for`` call."""
        while len(self._states) < len(tests):
            self._grow()
        writes = self._writes
        out = []
        for index, test in enumerate(tests):
            state = self._states[index]
            if writes is None:
                state.restore(self._snapshots[index])
            else:
                state.restore_slots(self._snapshots[index], *writes)
            for loc, bits in test.inputs.items():
                loc.write(state, bits)
            out.append(state)
        return out


class Validator:
    """Bound the ULP error between a target and a rewrite by search."""

    def __init__(
        self,
        target: Program,
        rewrite: Program,
        live_outs: Sequence[Union[str, Location]],
        ranges: Dict[str, Tuple[float, float]],
        base_testcase_factory: Callable[[], TestCase],
        backend: str = "jit",
    ):
        self.runner = Runner(live_outs, backend=backend)
        self._target = self.runner.prepare(target)
        self._rewrite = self.runner.prepare(rewrite)
        self.ranges = ranges
        self.base_testcase_factory = base_testcase_factory
        self._pool: Optional[_ProposalStates] = None

    def err(self, test: TestCase) -> float:
        """Equation 13: summed ULP distance plus the signal term.

        Both executions reuse the test case's pooled machine state (the
        rewrite run resets it in place after the target run), and read
        live-outs through the Runner's precompiled readers — this is the
        validator's innermost loop, one call per input-space proposal.
        """
        t_out, t_sig = self.runner.run_values(self._target, test)
        r_out, r_sig = self.runner.run_values(self._rewrite, test)
        if t_sig is not None:
            # The target itself traps: treat as divergent only if the
            # rewrite behaves differently.
            return 0.0 if r_sig == t_sig else SIGNAL_ERR
        if r_sig is not None:
            return SIGNAL_ERR
        total = 0.0
        for loc, r_bits, t_bits in zip(self.runner.live_outs, r_out, t_out):
            total += location_ulp_distance(loc, r_bits, t_bits)
        return total

    def err_block(self, tests: Sequence[TestCase]) -> List[float]:
        """Equation 13 over a block of test cases in two batched calls.

        Compiled backends execute the whole block in one prepared-program
        call per program (one compiled function on the JIT, one
        vectorized pass on the vector backend) instead of one call per
        (program, test) pair, over the validator's own proposal-state
        pool; results are bit-identical to per-test :meth:`err`.
        """
        pool = self._pool
        if pool is None:
            writes = None
            if resolve_backend(self.runner.backend).compiled:
                writes = union_writes(self._target.writes,
                                      self._rewrite.writes)
            pool = self._pool = _ProposalStates(tests[0].segments, writes)
        if any(test.segments is not pool.segments for test in tests):
            # Foreign segments (tests not descended from this chain's
            # base test case): the pristine pool images don't apply.
            return self._err_block_generic(tests)
        runner = self.runner
        states = pool.states_for(tests)
        t_signals = runner.execute_batch_from(self._target, states)
        t_values = [None if signal is not None else runner.values_of(state)
                    for state, signal in zip(states, t_signals)]
        states = pool.states_for(tests)
        r_signals = runner.execute_batch_from(self._rewrite, states)
        live_outs = runner.live_outs
        errs = []
        for state, t_out, t_sig, r_sig in zip(states, t_values, t_signals,
                                              r_signals):
            if t_sig is not None:
                errs.append(0.0 if r_sig == t_sig else SIGNAL_ERR)
            elif r_sig is not None:
                errs.append(SIGNAL_ERR)
            else:
                r_out = runner.values_of(state)
                total = 0.0
                for loc, r_bits, t_bits in zip(live_outs, r_out, t_out):
                    total += location_ulp_distance(loc, r_bits, t_bits)
                errs.append(total)
        return errs

    def _err_block_generic(self, tests: Sequence[TestCase]) -> List[float]:
        """:meth:`err_block` over the tests' own pooled states (slow
        path for test cases with foreign memory segments)."""
        t_results = self.runner.run_batch(self._target, tests)
        r_results = self.runner.run_batch(self._rewrite, tests)
        live_outs = self.runner.live_outs
        errs = []
        for (t_out, t_sig), (r_out, r_sig) in zip(t_results, r_results):
            if t_sig is not None:
                errs.append(0.0 if r_sig == t_sig else SIGNAL_ERR)
            elif r_sig is not None:
                errs.append(SIGNAL_ERR)
            else:
                total = 0.0
                for loc, r_bits, t_bits in zip(live_outs, r_out, t_out):
                    total += location_ulp_distance(loc, r_bits, t_bits)
                errs.append(total)
        return errs

    def validate(self, config: ValidationConfig = ValidationConfig(),
                 strategy: Optional[ValidationStrategy] = None,
                 checkpoint_every: int = 0,
                 on_checkpoint: Optional[
                     Callable[["ValidationCheckpoint"], None]] = None,
                 resume: Optional["ValidationCheckpoint"] = None,
                 ) -> ValidationResult:
        """Run the input-space chain until mixed or out of budget.

        Proposals are evaluated in speculative blocks: a block of inputs
        is drawn from ``q(. | current)`` up front and executed in two
        batched calls (:meth:`err_block`), then consumed sequentially by
        the Metropolis-Hastings loop.  An accept changes the chain state,
        so the rest of the block — drawn conditioned on the *old* current
        — is discarded; every consumed proposal therefore sees exactly
        the distribution the scalar chain would have drawn, and the chain
        law is unchanged.  The block size tracks the reciprocal of an
        exponentially weighted acceptance-rate estimate — the expected
        rejection streak length — capped at ``config.max_block``, so
        speculation only grows where rejection streaks make the batched
        evaluation profitable.

        Strategies with ``uniform_proposals`` (random testing) draw
        independently of the chain state, so an accept invalidates
        nothing: their blocks are always full-sized and fully consumed,
        and blocking cannot change the realized sample stream (their
        ``accept`` never consumes randomness).  Chain strategies *do*
        realize a different path per block size (same chain law), so
        ``max_block=None`` keeps them scalar unless explicitly raised.
        """
        strategy = strategy if strategy is not None else ValidationMcmc()
        rng = random.Random(config.seed)
        proposer = TestCaseProposer(self.ranges,
                                    sigma_fraction=config.sigma_fraction)

        base = self.base_testcase_factory()
        if resume is not None:
            echo = (resume.seed, resume.max_proposals)
            want = (config.seed, config.max_proposals)
            if echo != want:
                raise ValueError(
                    f"checkpoint was taken under config {echo} "
                    f"(seed, max_proposals); resuming under {want}")
            rng.setstate(resume.rng_state)
            current = TestCase(dict(resume.current_inputs), base.segments)
            current_err = resume.current_err
            max_err = resume.max_err
            argmax = None if resume.argmax_inputs is None \
                else TestCase(dict(resume.argmax_inputs), base.segments)
            chain = list(resume.chain)
            z_scores = list(resume.z_scores)
            trace = list(resume.trace)
            evaluations = resume.evaluations
            accept_rate = resume.accept_rate
            iteration = resume.iteration
            samples = iteration
        else:
            current = proposer.initial(rng, base)
            current_err = self.err(current)
            max_err, argmax = current_err, current
            # The Geweke diagnostic runs on log-compressed errors: the raw
            # error spans ~19 decades, which would let a single spike
            # dominate the spectral density estimate forever.
            chain = [math.log1p(current_err)]
            z_scores = []
            trace = [(0, max_err)]
            samples = 0
            evaluations = 0
            # Exponentially weighted acceptance-rate estimate; the block
            # is sized to the expected rejection streak (1 / p-hat).  The
            # prior of 0.5 starts the chain scalar and lets rejection
            # streaks grow the block as evidence accumulates.
            accept_rate = 0.5
            iteration = 0
        trace_stride = max(1, config.max_proposals
                           // max(1, config.trace_points))
        converged = False
        ewma = 0.05
        independent = strategy.uniform_proposals
        draw = (proposer.propose_uniform if independent
                else proposer.propose)
        max_block = config.max_block
        if max_block is None:
            max_block = DEFAULT_UNIFORM_BLOCK if independent else 1

        last_checkpoint = iteration
        while iteration < config.max_proposals and not converged:
            if (checkpoint_every and on_checkpoint is not None
                    and iteration - last_checkpoint >= checkpoint_every):
                last_checkpoint = iteration
                on_checkpoint(ValidationCheckpoint(
                    iteration=iteration,
                    rng_state=rng.getstate(),
                    current_inputs={str(loc): bits for loc, bits
                                    in current.inputs.items()},
                    current_err=current_err,
                    max_err=max_err,
                    argmax_inputs=None if argmax is None
                    else {str(loc): bits for loc, bits
                          in argmax.inputs.items()},
                    chain=list(chain),
                    z_scores=list(z_scores),
                    trace=list(trace),
                    evaluations=evaluations,
                    accept_rate=accept_rate,
                    seed=config.seed,
                    max_proposals=config.max_proposals,
                ))
            if independent:
                block = max_block
            else:
                block = min(max_block,
                            max(1, int(1.0 / max(accept_rate,
                                                 1.0 / max_block))))
            size = min(block, config.max_proposals - iteration)
            proposals = [draw(rng, current) for _ in range(size)]
            errs = (self.err_block(proposals) if size > 1
                    else [self.err(proposals[0])])
            evaluations += size
            for proposal, err in zip(proposals, errs):
                iteration += 1
                samples = iteration
                if err > max_err:
                    max_err, argmax = err, proposal
                accepted = strategy.accept(rng, current_err, err, iteration,
                                           config.max_proposals)
                if accepted:
                    current, current_err = proposal, err
                accept_rate += ewma * ((1.0 if accepted else 0.0)
                                       - accept_rate)
                chain.append(math.log1p(current_err))
                if iteration % trace_stride == 0:
                    trace.append((iteration, max_err))
                if (iteration >= config.min_samples
                        and iteration % config.check_interval == 0):
                    z = geweke_z(chain)
                    z_scores.append((iteration, z))
                    if abs(z) < config.z_threshold:
                        converged = True
                        break
                if accepted and not independent:
                    # The rest of the block was drawn conditioned on the
                    # superseded current — discard it.
                    break

        if trace[-1][0] != samples:
            trace.append((samples, max_err))
        return ValidationResult(
            max_err=max_err,
            argmax=argmax,
            samples=samples,
            converged=converged,
            passed=max_err <= config.eta,
            z_scores=z_scores,
            trace=trace,
            chain=chain if config.keep_chain else None,
            evaluations=evaluations,
            wasted=evaluations - samples,
        )

    def validate_multichain(self, config: ValidationConfig,
                            chains: int = 4) -> "MultiChainResult":
        """Run independent chains and combine with the R-hat diagnostic.

        Each chain gets a derived seed; the reported bound is the max
        over chains and convergence evidence is Gelman-Rubin's potential
        scale reduction factor over the log-error chains.
        """
        from dataclasses import replace

        from repro.validation.geweke import gelman_rubin

        if chains < 2:
            raise ValueError("multi-chain validation needs >= 2 chains")
        results = []
        for chain_index in range(chains):
            chain_config = replace(config, seed=config.seed + chain_index,
                                   keep_chain=True)
            results.append(self.validate(chain_config))
        r_hat = gelman_rubin([r.chain for r in results])
        max_err = max(r.max_err for r in results)
        return MultiChainResult(
            max_err=max_err,
            passed=max_err <= config.eta,
            r_hat=r_hat,
            chains=results,
        )


def validate(target: Program, rewrite: Program,
             live_outs: Sequence[Union[str, Location]],
             ranges: Dict[str, Tuple[float, float]],
             base_testcase_factory: Callable[[], TestCase],
             config: ValidationConfig = ValidationConfig(),
             backend: str = "jit") -> ValidationResult:
    """Equation 15 as a convenience function."""
    validator = Validator(target, rewrite, live_outs, ranges,
                          base_testcase_factory, backend=backend)
    return validator.validate(config)
