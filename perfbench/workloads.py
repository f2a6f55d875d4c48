"""The three workloads: train, eval and decode.

Each drives the ternact package through its public functions, as one closed
loop client in one process: the next operation starts when the previous one
returned. The workload seed decides the Markov chain, the model's initial
weights and every token the program sees; the program gets only those tokens.

An operation (op) is one training step (train), one held-out batch scored
through ``eval_perplexity`` (eval), or one greedy decode request (decode).
A failed op is an exception, a non-finite loss or logit, or a decode result
of the wrong length, with a changed prompt or with out-of-vocabulary tokens.
Failed ops are counted and the run goes on.
"""

from __future__ import annotations

import hashlib
import math
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from ternact import autodiff as ad
from ternact import metrics, model as model_mod, tensorio, train
from ternact.data import MarkovChain, MarkovDataConfig, batch_stream
from ternact.model import ModelConfig, Stage, TransformerModel, configure_stage
from ternact.sparsify import kept_count
from ternact.train import TrainerConfig

from calibrate import Speedometer
from tracing import COMMON_SPANS, Tracer

# top-K fraction the paper fixes in front of the attention output projection
ATTN_OUT_K = 0.5
SERVE_KV_BITS = 3


@dataclass(frozen=True)
class Size:
    """Model shape and run lengths. ``DEFAULT`` is the CLI's default model."""

    model: dict = field(default_factory=lambda: dict(
        hidden_size=128, glu_size=344, n_heads=4, n_layers=4, vocab_size=256, seq_len=32))
    batch_size: int = 16
    train_steps: int = 50  # one training run of the train workload
    stage_split: float = 0.6  # keeps the op median inside the stage-1 step cluster
    setup_train_steps: int = 12  # brief training before eval and decode
    final_steps: int = 10  # loss window at either end of a training run
    loss_batches: int = 32  # held-out batches loss_nats averages on eval
    match_requests: int = 32  # decode requests token_match covers on decode
    check_requests: int = 4  # greedy requests token_match covers on train and eval
    decode_loss_batches: int = 4


DEFAULT = Size()


@dataclass
class Phase:
    """What one measuring loop did. ``op_s`` holds successful ops only; for
    decode each is the request's wall time divided by its new tokens. With a
    ``speed``, the reference kernel runs between ops, outside their times,
    and each op keeps the mark it needs to be calibrated."""

    speed: Speedometer | None = None
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    op_mark: list[int] = field(default_factory=list)
    busy_s: float = 0.0  # wall time of every op, failed ones too
    busy: list[tuple[float, int]] = field(default_factory=list)  # (wall time, mark) of every op
    units: int = 0  # steps, batches or generated tokens of successful ops
    tokens: int = 0  # tokens trained, scored or generated
    step_s: dict[str, list[float]] = field(default_factory=lambda: {"stage1": [], "stage2": []})
    losses: list[float] = field(default_factory=list)
    requests: list[tuple[np.ndarray, int]] = field(default_factory=list)

    def spent(self, elapsed: float) -> int:
        """Count one op's wall time, failed or not, and return its mark."""
        mark = self.speed.mark() if self.speed else 0
        self.busy_s += elapsed
        self.busy.append((elapsed, mark))
        if self.speed:
            self.speed.after_op(elapsed)
        return mark

    def timed(self, seconds: float, mark: int) -> None:
        """Add a successful op's time."""
        self.op_s.append(seconds)
        self.op_mark.append(mark)


def rounds(phase: Phase, seconds: float, min_ops: int = 1):
    """Yield once per round (a training run, a batch, a block of requests)
    until at least ``min_ops`` ops were added to ``phase`` and stopping ends
    nearer to ``seconds`` than one more round as long as the last would."""
    start = last = perf_counter()
    attempted = phase.attempted
    yield
    while True:
        now = perf_counter()
        if phase.attempted - attempted >= min_ops and now - start + (now - last) / 2 >= seconds:
            return
        last = now
        yield


def _seeds(seed: int) -> dict[str, int]:
    names = ("model", "data", "train_stream", "eval_stream", "prompts")
    state = np.random.SeedSequence(seed).generate_state(len(names))
    return {name: int(value) for name, value in zip(names, state)}


def _armed(tracer: Tracer | None, request: bool = False):
    return tracer.armed_for_op(request) if tracer is not None else nullcontext()


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def prompt_lengths(rng: np.random.Generator, max_len: int) -> list[int]:
    """One block of requests: every prompt length in 1..max_len once, in a
    seeded order. Runs measure whole blocks, so every seed and every run
    length sees the same mix of lengths."""
    return [int(n) for n in rng.permutation(np.arange(1, max_len + 1))]


def decode_problem(out, prompt: np.ndarray, n_new: int, vocab: int) -> str | None:
    out = np.asarray(out)
    if out.shape != (1, prompt.shape[1] + n_new):
        return f"decode returned shape {out.shape}, wanted {(1, prompt.shape[1] + n_new)}"
    if not np.array_equal(out[:, : prompt.shape[1]], prompt):
        return "decode changed the prompt"
    if out.min() < 0 or out.max() >= vocab:
        return "decode produced an out-of-vocabulary token"
    return None


def token_matches(model: TransformerModel, out: np.ndarray, prompt_len: int) -> tuple[int, int] | None:
    """(matching, generated) tokens against the argmax of one full no-grad
    forward over the finished sequence; None when that forward's logits are
    not finite."""
    with ad.no_grad():
        logits = model_mod.model_forward(model, out).value
    if not np.all(np.isfinite(logits)):
        return None
    predicted = np.argmax(logits[0, prompt_len - 1 : -1], axis=-1)
    generated = out[0, prompt_len:]
    return int(np.sum(predicted == generated)), int(generated.size)


class Workload:
    name = ""
    setup_repeats = 3
    expected_spans: tuple[str, ...] = COMMON_SPANS
    absent_spans: tuple[str, ...] = ()

    def __init__(self, size: Size, seed: int):
        self.size = size
        self.seeds = _seeds(seed)
        self.config = ModelConfig(**size.model)
        self.io: dict[str, list[float]] = {"save_s": [], "load_s": [], "bytes": []}

    def min_ops(self) -> int:
        """Ops the untraced loop runs at least, so that loss_nats and
        token_match cover the same ops whatever the machine's speed."""
        return 1

    def _chain(self) -> MarkovChain:
        return MarkovChain(MarkovDataConfig(vocab_size=self.config.vocab_size, seed=self.seeds["data"]))

    def _decode(self, model, chain, rng, prompt_len: int, phase: Phase, tracer=None) -> None:
        """One greedy request: prompt drawn outside the op, continued to
        seq_len, output checked."""
        seq_len = self.config.seq_len
        prompt = chain.sample(rng, 1, prompt_len)
        n_new = seq_len - prompt.shape[1]
        phase.attempted += 1
        start = perf_counter()
        try:
            with _armed(tracer, request=True):
                out = model_mod.greedy_decode(model, prompt, n_new)
        except Exception as exc:  # a failed op is counted, not fatal
            phase.spent(perf_counter() - start)
            phase.failures.append(f"request {phase.attempted}: {type(exc).__name__}: {exc}")
            return
        elapsed = perf_counter() - start
        mark = phase.spent(elapsed)
        problem = decode_problem(out, prompt, n_new, self.config.vocab_size)
        if problem is not None:
            phase.failures.append(f"request {phase.attempted}: {problem}")
            return
        phase.timed(elapsed / n_new, mark)
        phase.units += n_new
        phase.tokens += n_new
        phase.requests.append((np.asarray(out), prompt.shape[1]))

    def _match_fraction(self, model, phase: Phase, requests) -> float:
        matched = total = 0
        for i, (out, prompt_len) in enumerate(requests):
            counts = token_matches(model, out, prompt_len)
            if counts is None:
                phase.failures.append(f"request {i + 1}: non-finite logits in the check forward")
                continue
            matched += counts[0]
            total += counts[1]
        return matched / total if total else 0.0

    def _check_token_match(self, model, chain, phase: Phase) -> float:
        """token_match on a few fixed greedy requests made after the timed
        loop; they count as attempted ops of the phase but are not timed."""
        check = Phase()
        rng = np.random.default_rng(self.seeds["prompts"] + 1)
        for prompt_len in prompt_lengths(rng, self.config.seq_len // 2)[: self.size.check_requests]:
            self._decode(model, chain, rng, prompt_len, check)
        match = self._match_fraction(model, check, check.requests)
        phase.attempted += check.attempted
        phase.failures.extend(check.failures)
        return match


class TrainWorkload(Workload):
    """Whole two-stage training runs (``run_two_stage``), steps timed through
    the ``on_record`` hook. Each run starts from the same initial weights, so
    every run repeats the first and the loss is deterministic."""

    name = "train"
    setup_repeats = 5
    expected_spans = COMMON_SPANS + ("autodiff.backward", "train.adamw", "train.grad_norm", "data.sample")
    absent_spans = ("layers.kv_quant",)

    def setup(self) -> None:
        self.chain = self._chain()
        self.model = TransformerModel(ModelConfig(**self.size.model), seed=self.seeds["model"])
        self.initial = {name: p.value.copy() for name, p in self.model.named_parameters().items()}
        self.inputs_digest = _digest(self.chain.successors, self.model.embedding.value)

    def recipe(self) -> TrainerConfig:
        steps = self.size.train_steps
        return TrainerConfig(total_steps=steps, stage_split=self.size.stage_split,
                             warmup_steps=max(1, steps // 10), batch_size=self.size.batch_size,
                             seed=self.seeds["model"])

    def measure(self, phase: Phase, seconds: float, min_ops: int = 1, tracer: Tracer | None = None) -> Phase:
        size, seq_len = self.size, self.config.seq_len
        params = self.model.named_parameters()
        recipe = self.recipe()
        for _ in rounds(phase, seconds, min_ops):
            for name, p in params.items():
                p.value = self.initial[name].copy()
            stream = batch_stream(self.chain, size.batch_size, seq_len, self.seeds["train_stream"])
            losses: list[float] = []
            mark = [perf_counter()]

            def on_record(record):
                elapsed = perf_counter() - mark[0]
                phase.attempted += 1
                at = phase.spent(elapsed)
                losses.append(record.loss)
                if not math.isfinite(record.loss):
                    phase.failures.append(f"step {record.step}: non-finite loss {record.loss}")
                else:
                    phase.timed(elapsed, at)
                    phase.step_s[record.stage].append(elapsed)
                    phase.units += 1
                    phase.tokens += size.batch_size * seq_len
                mark[0] = perf_counter()  # the next step starts after the bookkeeping

            try:
                with _armed(tracer):
                    train.run_two_stage(self.model, stream, recipe, on_record=on_record)
            except Exception as exc:  # the step in flight failed; start the next run
                phase.attempted += 1
                phase.spent(perf_counter() - mark[0])
                phase.failures.append(f"step {len(losses)}: {type(exc).__name__}: {exc}")
            if not phase.losses:
                phase.losses = losses
        return phase

    def finish(self, phase: Phase) -> tuple[list[str], dict[str, float]]:
        problems = []
        window = self.size.final_steps
        losses = phase.losses
        loss = float(np.mean(losses[-window:])) if losses else float("nan")
        if len(losses) < self.size.train_steps or not all(map(math.isfinite, losses)):
            problems.append("the first training run did not complete with finite losses")
        elif not np.mean(losses[-window:]) < np.mean(losses[:window]):
            problems.append(f"training loss did not fall: first {np.mean(losses[:window]):.4f}, "
                            f"final {loss:.4f}")
        match = self._check_token_match(self.model, self.chain, phase)
        return problems, {"loss_nats": loss, "token_match": match}


class ServedWorkload(Workload):
    """A briefly trained model, saved and reloaded through ``tensorio`` and
    served at the stage-2 hybrid binding with a 3-bit KV cache."""

    expected_spans = COMMON_SPANS + ("layers.kv_quant",)
    absent_spans = ("autodiff.backward", "train.adamw", "train.grad_norm")

    def setup(self) -> None:
        size = self.size
        self.chain = self._chain()
        model = TransformerModel(ModelConfig(**size.model), seed=self.seeds["model"])
        steps = size.setup_train_steps
        recipe = TrainerConfig(total_steps=steps, warmup_steps=max(1, steps // 4),
                               batch_size=size.batch_size, seed=self.seeds["model"])
        stream = batch_stream(self.chain, size.batch_size, self.config.seq_len, self.seeds["train_stream"])
        train.run_two_stage(model, stream, recipe)
        work = Path(__file__).resolve().parent.parent / ".perfbench_work"
        work.mkdir(exist_ok=True)
        path = work / f"{self.name}-{os.getpid()}.ckpt"
        try:
            start = perf_counter()
            tensorio.save_checkpoint(path, model)
            saved = perf_counter()
            self.model, _ = tensorio.load_checkpoint(path)
            loaded = perf_counter()
            self.io["bytes"].append(path.stat().st_size)
        finally:
            path.unlink(missing_ok=True)
        self.io["save_s"].append(saved - start)
        self.io["load_s"].append(loaded - saved)
        self.model.config.kv_bits = SERVE_KV_BITS
        configure_stage(self.model, Stage.STAGE2)
        self.inputs_digest = _digest(self.chain.successors, self.model.embedding.value)

    def held_out(self):
        return batch_stream(self.chain, self.size.batch_size, self.config.seq_len, self.seeds["eval_stream"])


class EvalWorkload(ServedWorkload):
    """Held-out batches scored one at a time through ``eval_perplexity``."""

    name = "eval"
    expected_spans = ServedWorkload.expected_spans + ("data.sample",)

    def min_ops(self) -> int:
        return self.size.loss_batches

    def setup(self) -> None:
        super().setup()
        self.stream = self.held_out()

    def measure(self, phase: Phase, seconds: float, min_ops: int = 1, tracer: Tracer | None = None) -> Phase:
        tokens = self.size.batch_size * self.config.seq_len
        for _ in rounds(phase, seconds, min_ops):
            phase.attempted += 1
            t0 = perf_counter()
            try:
                with _armed(tracer):
                    ppl = metrics.eval_perplexity(self.model, self.stream, n_batches=1)
            except Exception as exc:  # a failed op is counted, not fatal
                phase.spent(perf_counter() - t0)
                phase.failures.append(f"batch {phase.attempted}: {type(exc).__name__}: {exc}")
                continue
            elapsed = perf_counter() - t0
            mark = phase.spent(elapsed)
            if not math.isfinite(ppl):
                phase.failures.append(f"batch {phase.attempted}: non-finite perplexity {ppl}")
                continue
            phase.timed(elapsed, mark)
            phase.losses.append(math.log(ppl))
            phase.units += 1
            phase.tokens += tokens
        return phase

    def finish(self, phase: Phase) -> tuple[list[str], dict[str, float]]:
        problems = []
        losses = phase.losses[: self.size.loss_batches]
        loss = float(np.mean(losses)) if losses else float("nan")
        vocab = self.config.vocab_size
        if not math.exp(loss) < vocab:
            problems.append(f"held-out perplexity {math.exp(loss):.3f} is not below vocab size {vocab}")
        width = self.config.hidden_size
        want = kept_count(width, ATTN_OUT_K) / width
        try:
            got = self.attn_out_kept_fraction()
        except Exception as exc:  # reported as a failed check, not fatal
            got = f"{type(exc).__name__}: {exc}"
        if got != want:
            problems.append(f"attn_out top-K kept fraction {got!r}, wanted {want!r}")
        match = self._check_token_match(self.model, self.chain, phase)
        return problems, {"loss_nats": loss, "token_match": match}

    def attn_out_kept_fraction(self) -> float | None:
        """Kept fraction the top-K masks at attn_out produce on one held-out
        batch, counted by a tracer outside the timed loop."""
        tracer = Tracer()
        with tracer.installed(), tracer.armed_for_op():
            metrics.eval_perplexity(self.model, self.held_out(), n_batches=1)
        return tracer.kept_fraction("attn_out")


class DecodeWorkload(ServedWorkload):
    """Batch-1 greedy requests through ``greedy_decode``. Prompts of 1 to
    seq_len/2 tokens come from the Markov chain; each request continues to
    seq_len."""

    name = "decode"

    def min_ops(self) -> int:
        return self.size.match_requests

    def setup(self) -> None:
        super().setup()
        self.rng = np.random.default_rng(self.seeds["prompts"])

    def measure(self, phase: Phase, seconds: float, min_ops: int = 1, tracer: Tracer | None = None) -> Phase:
        for _ in rounds(phase, seconds, min_ops):
            for prompt_len in prompt_lengths(self.rng, self.config.seq_len // 2):
                self._decode(self.model, self.chain, self.rng, prompt_len, phase, tracer)
        return phase

    def finish(self, phase: Phase) -> tuple[list[str], dict[str, float]]:
        # every request's logits are checked; token_match covers a fixed
        # number of them so it does not depend on how many fit in the run
        n = self.size.match_requests
        match = self._match_fraction(self.model, phase, phase.requests[:n])
        self._match_fraction(self.model, phase, phase.requests[n:])
        problems, loss = [], float("nan")
        try:
            loss = math.log(metrics.eval_perplexity(self.model, self.held_out(), self.size.decode_loss_batches))
        except Exception as exc:  # reported as a failed check, not fatal
            problems.append(f"held-out loss: {type(exc).__name__}: {exc}")
        return problems, {"loss_nats": loss, "token_match": match}


WORKLOADS = {w.name: w for w in (TrainWorkload, EvalWorkload, DecodeWorkload)}
