"""Which functions the traced run wraps, what each call counts, and which
per-layer metrics come out of the spans.

Each entry names a public function as `<module>.<function>` of the
`advseq` package. Work counts are read from the call's arguments or its
result, never from program internals, so the traced run keeps working as
long as these entry points keep their signatures; a function that
disappears is reported as absent.
"""

from __future__ import annotations

import os

import numpy as np

from tracing import Tracer, percentile, tail_level

# target -> per-layer stats reported for it (besides what the trace
# always records). Work counts: rows, tokens, bytes.
LAYERS: dict[str, tuple[str, ...]] = {
    "recurrent.lstm_cell_forward": ("calls", "self_s"),
    "recurrent.lstm_cell_backward": ("calls", "self_s"),
    "numerics.sigmoid": ("calls", "self_s"),
    "numerics.matmul": ("calls", "self_s"),
    "numerics.adam_step": ("calls", "self_s"),
    "numerics.clip_gradients": ("calls", "self_s"),
    "generator.forward_states": ("rows", "self_s"),
    "generator.backward_coefs": ("self_s",),
    "generator.mle_step": ("ms_p50", "ms_tail"),
    "generator.step_logits": ("calls", "rows", "self_s"),
    "generator.sample_batch": ("tokens", "self_s"),
    "generator.mean_nll": ("rows", "self_s"),
    "generator.policy_gradient_step": ("self_s",),
    "adversarial.mc_rollout_rewards": ("calls", "rows", "self_s", "ms_p50"),
    "discriminators.score": ("calls", "rows", "self_s"),
    "discriminators.train_step": ("calls", "rows", "self_s", "ms_p50"),
    "embeddings.pretrain_embeddings": ("calls", "tokens", "self_s"),
    "evaluation.corpus_bleu_mean": ("incl_s",),
    "evaluation.self_bleu": ("incl_s",),
    "evaluation.bleu": ("calls",),
    "evaluation.adversarial_success": ("incl_s",),
    "evaluation.ere_suite": ("incl_s",),
    "checkpoint.save_tensors": ("calls", "bytes", "self_s"),
    "checkpoint.load_tensors": ("calls", "bytes", "self_s"),
    "corpus.generate_corpus": ("calls", "self_s"),
    "cli.load_run_data": ("calls", "self_s"),
    "cli.main": ("self_s",),
}

# layers whose set-up cost is reported separately in the traced run
SETUP_LAYERS = ("corpus.generate_corpus", "generator.backward_coefs",
                "discriminators.train_step", "embeddings.pretrain_embeddings",
                "checkpoint.save_tensors", "cli.main")

# span wrapped around the benchmark's own row counting, kept out of the
# layers' self time
COUNT_SPAN = "bench.count_rows"

UNITS = {"calls": "count", "rows": "count", "tokens": "count", "bytes": "bytes",
         "self_s": "s", "incl_s": "s", "ms_p50": "ms", "ms_tail": "ms"}

# derived per-stage figures reported next to the layers
EXTRA = {
    "adversarial.rollout_unique_share": ("ratio", "higher"),
    "stage.wall_s": ("s", "lower"),
    "stage.startup_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "setup.startup_s": ("s", "lower"),
}


def per_layer_spec() -> list[dict]:
    """The per-layer metric list, as BENCHMARK.json records it."""
    out = []
    for target, stats in LAYERS.items():
        for stat in stats:
            out.append({"name": f"{target}.{stat}", "unit": UNITS[stat], "better": "lower"})
    for name, (unit, better) in EXTRA.items():
        out.append({"name": name, "unit": unit, "better": better})
    for target in SETUP_LAYERS:
        out.append({"name": f"setup.{target}.self_s", "unit": "s", "better": "lower"})
    return out


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _rows_of(pos: int, name: str):
    return lambda args, kwargs, result, state: {"rows": len(_arg(args, kwargs, pos, name))}


def _file_bytes(args, kwargs, result, state):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _sample_tokens(args, kwargs, result, state):
    return {"tokens": int(np.size(result))}


def _embed_tokens(args, kwargs, result, state):
    return {"tokens": int(np.size(_arg(args, kwargs, 0, "data").tokens))}


def _rollout_hooks(tracer: Tracer):
    """Wrap the score function passed to mc_rollout_rewards so the rows it
    scores, and how many of them are distinct (label, sequence) pairs, are
    counted from the call's own inputs."""
    def before(args, kwargs):
        counts = {"rows": 0, "unique_rows": 0}
        score_fn = _arg(args, kwargs, 2, "score_fn")

        def counting(tokens, labels):
            idx = tracer.begin(COUNT_SPAN)
            keyed = np.ascontiguousarray(
                np.concatenate([np.asarray(labels)[:, None], tokens], axis=1))
            # one opaque item per row, so np.unique compares whole rows
            rows = keyed.view(np.dtype((np.void, keyed.itemsize * keyed.shape[1])))
            counts["rows"] += len(keyed)
            counts["unique_rows"] += len(np.unique(rows))
            tracer.end(idx)
            return score_fn(tokens, labels)

        if "score_fn" in kwargs:
            kwargs = dict(kwargs, score_fn=counting)
        else:
            args = args[:2] + (counting,) + args[3:]
        return args, kwargs, counts

    def after(args, kwargs, result, counts):
        return counts
    return before, after


def targets(tracer: Tracer) -> dict[str, tuple]:
    hooks: dict[str, tuple] = {name: (None, None) for name in LAYERS}
    hooks["generator.forward_states"] = (None, _rows_of(2, "tokens"))
    hooks["generator.step_logits"] = (None, _rows_of(2, "h"))
    hooks["generator.sample_batch"] = (None, _sample_tokens)
    hooks["generator.mean_nll"] = (None, _rows_of(2, "data"))
    hooks["adversarial.mc_rollout_rewards"] = _rollout_hooks(tracer)
    hooks["discriminators.score"] = (None, _rows_of(1, "tokens"))
    hooks["discriminators.train_step"] = (None, _rows_of(2, "tokens"))
    hooks["embeddings.pretrain_embeddings"] = (None, _embed_tokens)
    hooks["checkpoint.save_tensors"] = (None, _file_bytes)
    hooks["checkpoint.load_tensors"] = (None, _file_bytes)
    return hooks


def merge(summaries: list[dict[str, dict]]) -> dict[str, dict]:
    """Add up per-name summaries of several stage processes."""
    out: dict[str, dict] = {}
    for summary in summaries:
        for name, stats in summary.items():
            acc = out.setdefault(name, {"durations_ms": []})
            for key, value in stats.items():
                if key == "durations_ms":
                    acc[key].extend(value)
                else:
                    acc[key] = acc.get(key, 0) + value
    return out


def layer_metrics(summary: dict[str, dict]) -> dict[str, float]:
    """Per-layer metric values from a merged summary. A layer that was
    never called, or is absent from the program, reads 0; absent names are
    listed separately by the caller."""
    out: dict[str, float] = {}
    for target, stats in LAYERS.items():
        s = summary.get(target, {})
        durations = s.get("durations_ms", [])
        for stat in stats:
            if stat == "ms_p50":
                value = percentile(durations, 0.5) if durations else 0.0
            elif stat == "ms_tail":
                level = tail_level(len(durations)) or 0.5
                value = percentile(durations, level) if durations else 0.0
            else:
                value = s.get(stat, 0)
            out[f"{target}.{stat}"] = value
    rollout = summary.get("adversarial.mc_rollout_rewards", {})
    rows = rollout.get("rows", 0)
    out["adversarial.rollout_unique_share"] = (rollout.get("unique_rows", 0) / rows
                                               if rows else 0.0)
    return out
