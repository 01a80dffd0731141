"""Run one workload: set-up, a training phase, a decode phase, checks.

The untraced run (trace 0) times only the public entry points
``lenvae.training.train`` and ``lenvae.inference.summarize`` and reports the
end-to-end metrics. The traced run (trace 1) makes an untraced, a traced and
a second untraced pass over the same work, checks that all three agree bit
for bit, and reports the per-layer split of the traced pass.
"""

import hashlib
import os
import resource
import statistics
import tempfile
import time
import traceback

import numpy as np

from lenvae.inference import NATURAL, summarize
from lenvae.model import total_loss
from lenvae.textpipe import normalize
from lenvae.training import train

import tracing
import workloads

BACKWARD_OPS = ("matmul", "gather_rows", "concat_cols", "slice_cols", "sigmoid",
                "tanh_", "mul", "add", "cross_entropy_rows")

# per-train-step self time buckets: metric -> span names
TRAIN_BUCKETS = {
    "model.encode.ms": ("model.encode",),
    "model.decoder_stack_step.ms": ("model.decoder_stack_step",),
    "model.total_loss.self_ms": ("model.total_loss",),
    "model.draw_negatives.ms": ("model.draw_negatives",),
    "numerics.sampled_logits.fwd_ms": ("numerics.sampled_logits.fwd",),
    "model.bow_loss.ms": ("model.bow_loss",),
    "numerics.backward.graph_ms": ("numerics.backward",),
    **{f"numerics.backward.{op}.ms": (f"numerics.backward.{op}",) for op in BACKWARD_OPS},
    "numerics.backward.other_ops.ms": tuple(
        f"numerics.backward.{op}" for op in tracing.OPS
        if op not in BACKWARD_OPS and op not in tracing.BACKWARD_SPAN),
    "numerics.sampled_logits.bwd_ms": ("numerics.sampled_logits.bwd",),
    "numerics.weighted_cross_entropy_rows.bwd_ms": ("numerics.weighted_cross_entropy_rows.bwd",),
    "textpipe.encode_batch.ms": ("textpipe.encode_batch",),
    "numerics.clip_grad_norm.ms": ("numerics.clip_grad_norm",),
    "numerics.adam_step.ms": ("numerics.adam_step",),
    "checkpoint.checkpoint_save.ms": ("checkpoint.checkpoint_save",),
}

# per-decode-step self time buckets
DECODE_STEP_BUCKETS = {
    "inference.decode_step.ms": ("model.decode_step", "model.decoder_stack_step"),
    "inference.log_softmax_rows.ms": ("numerics.log_softmax_rows",),
    "inference.beam_select.ms": ("inference.beam_search",),
}

NS_PER_MS = 1e6


class Run:
    """Attempt and failure counts, correctness checks and the run record."""

    def __init__(self, spec, seed, trace):
        self.spec = spec
        self.attempted = 0
        self.failed = 0
        self.checks = {}
        self.errors = []
        self.record = {"workload": spec.name, "seed": seed, "trace": trace,
                       "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
                       "nproc": len(os.sched_getaffinity(0)),
                       "numpy": np.__version__}

    def check(self, name, ok):
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    @property
    def correct(self):
        return self.failed == 0 and all(self.checks.values())

    def fail(self, what, count):
        self.failed += count
        self.errors.append(f"{what}: {traceback.format_exc()}")


def params_digest(params) -> str:
    h = hashlib.sha256()
    for name, t in params.items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(t.data).tobytes())
    return h.hexdigest()


def heldout_nll(params, hp, batch) -> float:
    """Eval-mode (full softmax, z = mu) reconstruction NLL per target token."""
    _, comps = total_loss(batch, params, hp, 1.0, "eval")
    return comps["reconstruction"] * batch.ids.shape[0] / float((batch.lengths + 1).sum())


def train_once(run, inputs, out_root):
    """One ``train()`` call; returns (result or None, seconds inside train())."""
    spec = run.spec
    run.attempted += spec.train_steps
    with tempfile.TemporaryDirectory(dir=out_root) as tmp:
        out_dir = tmp if spec.checkpoint_interval else None
        start = time.perf_counter()
        try:
            result = train(inputs.sentences, inputs.vocab, inputs.hp, inputs.config,
                           out_dir=out_dir)
        except Exception:  # a failed call is counted, not fatal to the run
            run.fail("train", spec.train_steps)
            return None, time.perf_counter() - start
        elapsed = time.perf_counter() - start
    finite = all(np.isfinite(value) for rec in result.metrics.records for value in rec[1:])
    run.check("every loss component is finite", finite)
    return result, elapsed


def decode_once(run, inputs, item):
    """One ``summarize()`` call; returns (output or None, seconds)."""
    spec = run.spec
    sentence, requested = item
    run.attempted += 1
    start = time.perf_counter()
    try:
        out = summarize(sentence, requested, inputs.decode_params, inputs.decode_hp,
                        inputs.decode_vocab, beam_width=spec.beam_width,
                        max_tokens=spec.max_tokens)
    except Exception:  # a failed sentence is counted, not fatal to the run
        run.fail("summarize", 1)
        return None, time.perf_counter() - start
    elapsed = time.perf_counter() - start
    if not out.strip():
        run.failed += 1
        run.errors.append(f"empty output for {item!r}")
    return out, elapsed


def len_abs_err(items, outputs) -> float:
    errors = []
    for (sentence, requested), out in zip(items, outputs):
        wanted = len(normalize(sentence)) if requested == NATURAL else requested
        errors.append(abs(len(out.split()) - wanted))
    return float(np.mean(errors))


def outputs_digest(outputs) -> str:
    return hashlib.sha256("\n".join(map(str, outputs)).encode()).hexdigest()


def trained_nll(result, inputs) -> float:
    return heldout_nll(result.params, inputs.hp, inputs.heldout) if result else float("nan")


def check_quality(run, inputs, outputs, nll, nll_untrained) -> float:
    """Checks shared by both kinds of run; returns the decode length error."""
    spec = run.spec
    items = inputs.items[:len(outputs)]
    run.check("every decoded output is non-empty", all(outputs))
    err = len_abs_err(items, outputs) if all(outputs) else float("nan")
    if spec.len_err_limit is not None:
        run.check("decode length error within the stored checkpoint's limit",
                  err <= spec.len_err_limit)
    run.check("trained held-out NLL is below the untrained model's", nll < nll_untrained)
    run.record.update(heldout_nll_untrained=nll_untrained, heldout_nll=nll,
                      len_abs_err=err, outputs_digest=outputs_digest(outputs))
    return err


def run_untraced(run, seconds, out_root):
    """Rounds of one set-up, one ``train()`` call and as long again of
    decoding, until ``seconds`` are used; interleaving spreads every metric's
    samples over the whole run, so a slow spell of the machine weighs on all
    of them alike. Set-ups left over from the rounds run at the end."""
    spec = run.spec
    seed = run.record["seed"]
    n_check = spec.check_items
    setup_s, rates, digests, times, outputs = [], [], set(), [], []
    inputs = nll_untrained = result = None

    def setup():
        nonlocal inputs
        inputs = None   # let the previous set-up go before building the next
        start = time.perf_counter()
        inputs = workloads.build_inputs(spec, seed)
        setup_s.append(time.perf_counter() - start)

    decode_s = 0.0
    run_start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if len(setup_s) < spec.setup_repeats:
            setup()
        if nll_untrained is None:
            nll_untrained = heldout_nll(inputs.untrained, inputs.hp, inputs.heldout)
        result = None   # let the previous parameters go before training again
        result, train_s = train_once(run, inputs, out_root)
        if result is not None:
            rates.append(spec.train_steps / train_s)
            digests.add(params_digest(result.params))

        decode_start = time.perf_counter()
        while len(times) < n_check or time.perf_counter() - decode_start < train_s:
            item = inputs.items[len(times) % len(inputs.items)]
            out, elapsed = decode_once(run, inputs, item)
            if len(times) < n_check:
                outputs.append(out)
            times.append(elapsed)
        decode_s += time.perf_counter() - decode_start
        now = time.perf_counter()
        if now + (now - round_start) > run_start + seconds:
            break
    run.check("train() is deterministic across calls", len(digests) == 1)
    nll = trained_nll(result, inputs)
    result = None
    check_quality(run, inputs, outputs, nll, nll_untrained)
    while len(setup_s) < spec.setup_repeats:
        setup()

    sentence_ms = np.array(times) * 1e3
    run.record.update(setup_s=setup_s, train_steps_per_s=rates,
                      params_digest=sorted(digests), decoded=len(times),
                      decode_sentence_ms_p90=float(np.percentile(sentence_ms, 90))
                      if len(times) >= 100 else None)
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "train.steps_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
        "train.heldout_nll": (nll, "nats/token"),
        "decode.sentences_per_s": (len(times) / decode_s, "1/s"),
        "decode.sentence_ms.p50": (float(np.median(sentence_ms)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run_traced(run, out_root):
    """Untraced, traced, untraced again: the passes must agree bit for bit;
    the second untraced pass, as warm as the traced one, gives the overhead."""
    spec = run.spec
    seed = run.record["seed"]
    inputs = workloads.build_inputs(spec, seed)
    nll_untrained = heldout_nll(inputs.untrained, inputs.hp, inputs.heldout)
    tracer = tracing.Tracer()

    def trained_digest(result):
        return params_digest(result.params) if result else None

    digests = {trained_digest(train_once(run, inputs, out_root)[0])}
    with tracer.installed(graph=True):
        root = tracer.begin("phase.train")
        result, traced_train_s = train_once(run, inputs, out_root)
        tracer.end(root)
    digests.add(trained_digest(result))
    nll = trained_nll(result, inputs)
    result = None   # let the parameters go before training again
    warm, plain_train_s = train_once(run, inputs, out_root)
    digests.add(trained_digest(warm))
    run.check("traced and untraced training give bit-identical parameters",
              None not in digests and len(digests) == 1)

    items = inputs.items[:spec.check_items]
    decode_first = len(tracer.spans)

    def decode_pass(traced):
        outputs, total_s = [], 0.0
        for item in items:
            root = tracer.begin("phase.decode") if traced else None
            out, elapsed = decode_once(run, inputs, item)
            if traced:
                tracer.end(root)
            outputs.append(out)
            total_s += elapsed
        return outputs, total_s

    plain_outputs, _ = decode_pass(False)
    with tracer.installed(graph=False):
        outputs, traced_decode_s = decode_pass(True)
    warm_outputs, plain_decode_s = decode_pass(False)
    digests = {outputs_digest(o) for o in (plain_outputs, outputs, warm_outputs)}
    run.check("traced and untraced decoding give identical outputs", len(digests) == 1)
    err = check_quality(run, inputs, outputs, nll, nll_untrained)

    spans_path = os.path.join(out_root, f"spans_{spec.name}_seed{seed}.csv")
    tracer.write_csv(spans_path)
    run.record["spans"] = os.path.relpath(spans_path, out_root)
    metrics = train_layer_metrics(tracer, 0, decode_first, traced_train_s, plain_train_s)
    metrics.update(decode_layer_metrics(tracer, decode_first, len(items),
                                        traced_decode_s, plain_decode_s))
    metrics["decode.len_abs_err"] = (err, "words")
    return metrics


def _bucket_ms(self_ns, names, per):
    return sum(self_ns.get(n, 0) for n in names) / NS_PER_MS / per


def train_layer_metrics(tracer, first, last, traced_s, plain_s):
    """Per-train-step split of the traced training pass."""
    spans, self_ns = tracer.phase_spans(first, last)
    steps = max(len(tracer.step_ends), 1)
    metrics = {name: (_bucket_ms(self_ns, names, steps), "ms")
               for name, names in TRAIN_BUCKETS.items()}
    named_ms = sum(value for value, _ in metrics.values())
    metrics["training.other.ms"] = (traced_s * 1e3 / steps - named_ms, "ms")
    backward_ns = sum(end - start for name, start, end, _ in spans if name == "numerics.backward")
    metrics["numerics.backward.ms"] = (backward_ns / NS_PER_MS / steps, "ms")
    step_ms = np.diff([spans[0][1]] + tracer.step_ends) / NS_PER_MS
    metrics["training.step_ms.p50"] = (float(np.percentile(step_ms, 50)), "ms")
    metrics["training.step_ms.p90"] = (float(np.percentile(step_ms, 90)), "ms")
    counts = tracer.counts
    metrics["numerics.nodes"] = (counts["numerics.nodes"] / steps, "count")
    metrics["numerics.sampled_logits.gather_bytes"] = (
        counts["numerics.sampled_logits.gather_bytes"] / steps, "B")
    metrics["textpipe.encode_batch.bytes"] = (
        counts["textpipe.encode_batch.bytes"] / max(counts["textpipe.encode_batch.calls"], 1),
        "B")
    metrics["trace.overhead.train_pct"] = ((traced_s - plain_s) / plain_s * 100.0, "%")
    return metrics


def decode_layer_metrics(tracer, first, sentences, traced_s, plain_s):
    """Per-decode-step (and per-sentence) split of the traced decode pass."""
    _, self_ns = tracer.phase_spans(first)
    counts = tracer.counts
    calls = max(counts["inference.decode_step.calls"], 1)
    metrics = {name: (_bucket_ms(self_ns, names, calls), "ms")
               for name, names in DECODE_STEP_BUCKETS.items()}
    encode_ms = self_ns["model.encode"] / NS_PER_MS / sentences
    steps_per_sentence = counts["inference.decode_step.calls"] / sentences
    step_ms = sum(value for value, _ in metrics.values())
    metrics.update({
        "inference.encode.ms": (encode_ms, "ms"),
        "inference.other.ms": (traced_s * 1e3 / sentences - encode_ms
                               - step_ms * steps_per_sentence, "ms"),
        "inference.steps": (steps_per_sentence, "count"),
        "inference.decode_step.rows": (counts["inference.decode_step.rows"] / calls, "count"),
        "inference.truncated_share": (counts["inference.truncated"] / sentences, "ratio"),
        "trace.overhead.decode_pct": ((traced_s - plain_s) / plain_s * 100.0, "%"),
    })
    return metrics
