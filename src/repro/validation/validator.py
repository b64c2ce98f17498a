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

from repro.x86.memory import Memory
from repro.x86.program import Program
from repro.x86.state import MachineState
from repro.x86.testcase import TestCase

from repro.core.cost import ulp_distance, ulp_widths
from repro.core.runner import (DIRTIES_ALL, DIRTIES_MEMORY, DIRTIES_NOTHING,
                               Location, Runner)
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


# Proposals per evaluation block of a ``uniform_proposals`` strategy; the
# block size cannot change such a run's results (see Validator.validate).
UNIFORM_BLOCK = 64


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
    # Proposals executed, and those of them never consumed: the tail of a
    # uniform-proposal block drawn past the Geweke break.
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

    Captured at evaluation-block boundaries, where the chain state is
    consistent; resuming reproduces the uninterrupted run's sample
    stream bit-for-bit (the RNG state and the chain's current point are
    part of the capture).  Test
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
    """The validator's machine states: one per slot of an evaluation
    block, shared by the target and the rewrite.

    Validation proposals are throwaway test cases: each is executed twice
    (target, rewrite) and discarded, so giving each its own machine state
    (:meth:`TestCase.pooled_state` builds a template, a copy and a
    snapshot per test case) would cost about half the validator's
    runtime.  The pool instead keeps one pristine state per block slot,
    built from a test case's segments with no live-ins applied, plus its
    snapshot.  :meth:`Runner.execute_batch_from` returns the live-outs
    rather than leaving them in the state, so each use resets only what
    a run can have changed (``dirt``, from :meth:`Runner.dirties`):
    nothing for a register-only pair on the compiled backends, whose
    runs keep register files and flags out of the states, so such a
    state only has its live-ins written; the writable pages when a
    program stores; a full restore on the emulator.  Then it writes the
    test's live-in values.

    A slot is rebuilt when its test's segments are not the ones it was
    built from, and restored in full when its test writes other live-in
    locations than the slot's previous test did (the old ones would
    stay in place).  A chain's proposals share their base test case's
    segments and live-in locations, so neither happens on the hot path.
    """

    __slots__ = ("_dirt", "_slots")

    def __init__(self, dirt: int):
        self._dirt = dirt
        # Per slot: [segments, live-in locations last written, state,
        # snapshot].  A memory snapshot restores into the segment
        # objects it was captured from.
        self._slots: List[list] = []

    def states_for(self, tests: Sequence[TestCase]) -> List[MachineState]:
        """Per test, a reset state holding its live-ins, aligned with
        ``tests``.  Valid until the next ``states_for`` call."""
        slots = self._slots
        dirt = self._dirt
        states = []
        for index, test in enumerate(tests):
            if index == len(slots):
                slots.append([None])
            slot = slots[index]
            segments = test.segments
            if segments is not slot[0]:
                state = MachineState(Memory(
                    seg.copy() if seg.writable else seg for seg in segments))
                slot = slots[index] = [segments, None, state,
                                       state.snapshot()]
            inputs = test.inputs
            locations = tuple(inputs)
            _, written, state, snapshot = slot
            if dirt == DIRTIES_ALL or locations != written:
                state.restore(snapshot)
                slot[1] = locations
            elif dirt == DIRTIES_MEMORY:
                state.mem.restore_writable(snapshot[4])
            for loc, bits in inputs.items():
                loc.write(state, bits)
            states.append(state)
        return states


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
        runner = self.runner = Runner(live_outs, backend=backend)
        self._target = runner.prepare(target)
        self._rewrite = runner.prepare(rewrite)
        self.ranges = ranges
        self.base_testcase_factory = base_testcase_factory
        target_dirt = runner.dirties(self._target)
        self._pool = _ProposalStates(
            max(target_dirt, runner.dirties(self._rewrite)))
        # The rewrite needs its states reset again after the target's
        # run only if that run can have changed them.
        self._reset_between = target_dirt != DIRTIES_NOTHING
        self._widths = ulp_widths(runner.live_outs)

    def err(self, test: TestCase) -> float:
        """Equation 13 on one test case: a block of one."""
        return self.err_block([test])[0]

    def err_block(self, tests: Sequence[TestCase]) -> List[float]:
        """Equation 13 per test case: the summed live-out ULP distance,
        or the signal term when either program traps.

        This is the validator's one evaluator and its innermost loop.
        Each program runs on the whole block in one batched call (one
        compiled function on the JIT, one vectorized pass on the vector
        backend, per-state dispatch on the emulator) over the
        proposal-state pool, so no test case builds a machine state of
        its own; the call returns the live-outs
        (:meth:`Runner.execute_batch_from`).  The target and the rewrite
        run on the same states, which are reset again between the two
        runs only when the target's run can have changed them.  One loop
        then sums both programs' live-outs'
        :func:`~repro.core.cost.ulp_distance`: the ordered-key ULP
        distance of an FP location, the Hamming distance of an integer
        one.
        """
        runner = self.runner
        pool = self._pool
        states = pool.states_for(tests)
        targets = runner.execute_batch_from(self._target, states)
        if self._reset_between:
            states = pool.states_for(tests)
        rewrites = runner.execute_batch_from(self._rewrite, states)
        widths = self._widths
        errs = []
        for (want, t_sig), (got, r_sig) in zip(targets, rewrites):
            if t_sig is not None:
                # The target itself traps: divergent only if the rewrite
                # behaves differently.
                errs.append(0.0 if r_sig == t_sig else SIGNAL_ERR)
            elif r_sig is not None:
                errs.append(SIGNAL_ERR)
            else:
                total = 0.0
                for width, got_bits, want_bits in zip(widths, got, want):
                    total += ulp_distance(width, got_bits, want_bits)
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

        Proposals are drawn from ``q(. | current)``, evaluated a block at
        a time by :meth:`err_block`, and consumed in order by the
        acceptance loop; the initial point is a block of one.  A chain
        strategy's block holds one proposal, because its next draw
        depends on whether this one is accepted.  Strategies with
        ``uniform_proposals`` (random testing) draw independently of the
        chain state and their ``accept`` consumes no randomness, so they
        evaluate :data:`UNIFORM_BLOCK` proposals per block and realize
        the same sample stream as they would one proposal at a time.
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
            iteration = resume.iteration
        else:
            current = proposer.initial(rng, base)
            current_err, = self.err_block([current])
            max_err, argmax = current_err, current
            # The Geweke diagnostic runs on log-compressed errors: the raw
            # error spans ~19 decades, which would let a single spike
            # dominate the spectral density estimate forever.
            chain = [math.log1p(current_err)]
            z_scores = []
            trace = [(0, max_err)]
            evaluations = 0
            iteration = 0
        trace_stride = max(1, config.max_proposals
                           // max(1, config.trace_points))
        converged = False
        if strategy.uniform_proposals:
            draw, block = proposer.propose_uniform, UNIFORM_BLOCK
        else:
            draw, block = proposer.propose, 1

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
                    seed=config.seed,
                    max_proposals=config.max_proposals,
                ))
            if block == 1:
                # A chain strategy's block: building it without the range
                # comprehension saves 0.5-1 µs per evaluation on jit.
                proposals = [draw(rng, current)]
            else:
                count = min(block, config.max_proposals - iteration)
                proposals = [draw(rng, current) for _ in range(count)]
            errs = self.err_block(proposals)
            evaluations += len(proposals)
            for proposal, err in zip(proposals, errs):
                iteration += 1
                if err > max_err:
                    max_err, argmax = err, proposal
                if strategy.accept(rng, current_err, err, iteration,
                                   config.max_proposals):
                    current, current_err = proposal, err
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

        if trace[-1][0] != iteration:
            trace.append((iteration, max_err))
        return ValidationResult(
            max_err=max_err,
            argmax=argmax,
            samples=iteration,
            converged=converged,
            passed=max_err <= config.eta,
            z_scores=z_scores,
            trace=trace,
            chain=chain if config.keep_chain else None,
            evaluations=evaluations,
            wasted=evaluations - iteration,
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
