"""Spans around the public functions of lenvae's layers, for the traced run.

Nothing under ``src/`` knows about tracing: ``Tracer.installed`` rebinds, for
the duration of a ``with`` block, every module attribute of the ``lenvae``
package that refers to a traced function, and puts each original back when
the block ends. Wrappers only read clocks and shapes, so a traced run
computes exactly what an untraced run does.

A span is ``[name, start_ns, end_ns, parent_index]``; spans stay in memory
until ``write_csv``. A span's self time is its duration minus the time its
child spans cover.
"""

import contextlib
import sys
import time
from collections import Counter, defaultdict

from lenvae import checkpoint, inference, model, textpipe
from lenvae.numerics import optim, tensor

clock = time.perf_counter_ns

# functions whose calls become spans, by the name their span gets
SPANNED = {
    "textpipe.encode_batch": (textpipe, "encode_batch"),
    "model.total_loss": (model, "total_loss"),
    "model.encode": (model, "encode"),
    "model.decoder_stack_step": (model, "decoder_stack_step"),
    "model.decode_step": (model, "decode_step"),
    "model.draw_negatives": (model, "draw_negatives"),
    "model.bow_loss": (model, "bow_loss"),
    "numerics.sampled_logits.fwd": (tensor, "sampled_logits"),
    "numerics.log_softmax_rows": (tensor, "log_softmax_rows"),
    "numerics.clip_grad_norm": (optim, "clip_grad_norm"),
    "numerics.adam_step": (optim, "adam_step"),
    "checkpoint.checkpoint_save": (checkpoint, "checkpoint_save"),
    "inference.beam_search": (inference, "beam_search"),
}

# ops whose returned Tensor is one autograd node; while the graph is traced
# each node's ``_backward`` closure is timed under the op's name
OPS = ("matmul", "add", "sub", "mul", "neg", "scale", "add_scalar", "mul_const",
       "sigmoid", "tanh_", "exp_", "concat_cols", "slice_cols", "gather_rows",
       "sum_all", "sum_cols", "cross_entropy_rows", "weighted_cross_entropy_rows",
       "sampled_logits")
BACKWARD_SPAN = {"sampled_logits": "numerics.sampled_logits.bwd",
                 "weighted_cross_entropy_rows": "numerics.weighted_cross_entropy_rows.bwd"}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.step_ends = []       # clock at the end of every adam_step
        self._open = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, clock(), 0, self._open[-1] if self._open else -1])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = clock()
        self._open.pop()

    def _span(self, name, fn, after=None):
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(args, result)
            return result
        return traced

    def _timed_backward(self, name, backward):
        def traced(g):
            index = self.begin(name)
            try:
                backward(g)
            finally:
                self.end(index)
        return traced

    def _graph_op(self, op, fn):
        name = BACKWARD_SPAN.get(op, f"numerics.backward.{op}")

        def traced(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.counts["numerics.nodes"] += 1
            out._backward = self._timed_backward(name, out._backward)
            return out
        return traced

    # -- hooks that count work at a span boundary ---------------------------

    def _after_encode_batch(self, args, batches):
        self.counts["textpipe.encode_batch.calls"] += 1
        self.counts["textpipe.encode_batch.bytes"] += sum(
            b.ids.nbytes + b.lengths.nbytes + b.bow.nbytes for b in batches)

    def _after_adam_step(self, args, result):
        self.step_ends.append(clock())

    def _after_decode_step(self, args, result):
        self.counts["inference.decode_step.calls"] += 1
        self.counts["inference.decode_step.rows"] += args[0].data.shape[0]

    def _after_beam_search(self, args, result):
        self.counts["inference.truncated"] += bool(result.truncated)

    def _after_sampled_logits(self, args, result):
        h, w, _, ids = args
        self.counts["numerics.sampled_logits.gather_bytes"] += \
            h.data.shape[1] * ids.size * w.data.itemsize

    @contextlib.contextmanager
    def installed(self, graph: bool):
        """Trace the layer functions; with ``graph`` also count autograd
        nodes and time every backward closure and ``Tensor.backward``."""
        after = {"textpipe.encode_batch": self._after_encode_batch,
                 "numerics.adam_step": self._after_adam_step,
                 "model.decode_step": self._after_decode_step,
                 "inference.beam_search": self._after_beam_search,
                 "numerics.sampled_logits.fwd": self._after_sampled_logits}
        wrappers = {}
        for name, (module, attr) in SPANNED.items():
            original = getattr(module, attr)
            fn = self._graph_op(attr, original) if graph and attr in OPS else original
            wrappers[id(original)] = (original, self._span(name, fn, after.get(name)))
        if graph:
            for op in OPS:
                fn = getattr(tensor, op)
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = (fn, self._graph_op(op, fn))
        saved = []
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.split(".")[0] != "lenvae":
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    saved.append((module, attr, value))
                    setattr(module, attr, entry[1])
        backward = tensor.Tensor.backward
        if graph:
            tensor.Tensor.backward = self._span("numerics.backward", backward)
        try:
            yield self
        finally:
            tensor.Tensor.backward = backward
            for module, attr, value in saved:
                setattr(module, attr, value)

    # -- analysis -----------------------------------------------------------

    def phase_spans(self, first: int, last: int | None = None):
        """Spans ``first`` to ``last`` with their self time (ns) by name."""
        spans = self.spans[first:last]
        covered = [0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= first:
                covered[parent - first] += end - start
        self_ns = defaultdict(int)
        for (name, start, end, _), child in zip(spans, covered):
            self_ns[name] += end - start - child
        return spans, self_ns

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("index,name,start_ns,end_ns,parent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                f.write(f"{index},{name},{start},{end},{parent}\n")
