"""Command-line surface: build | classify | evaluate | feedback | hopkins | sample.

Configuration lives in a single JSON document; paths, the output directory,
and the seed can be overridden with flags. The environment variable
WORKLOAD_PROFILER_OUT overrides the output directory for all commands.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import itertools
import json
import os
import sys
from functools import cache, partial
from json.encoder import encode_basestring_ascii  # json.dumps' escaper under ensure_ascii
from pathlib import Path

import numpy as np

from . import artifacts
from .classifier import ClassifierModel, classify_encoded, record_values
from .errors import ConfigError, ProfilerError, SchemaError, TraceReadError
from .pipeline import RunConfig, load_artifact, run_build, run_evaluate, run_feedback_command
from .predictor import PredictionPolicy, predict
from .preprocess import hopkins, stratified_sample
from .profiles import ProfileSet
from .trace_model import MetadataBlock, TraceSchema, load_trace, runtime_matrix
from .trace_model import schema_for, write_trace

OUT_ENV = "WORKLOAD_PROFILER_OUT"
CLASSIFY_CHUNK = 128  # input lines read and routed together by `classify`


def _load_config(args) -> RunConfig:
    config = RunConfig.load(args.config)
    overrides = {}
    if getattr(args, "trace", None):
        overrides["trace"] = Path(args.trace)
    if getattr(args, "out", None):
        overrides["output_dir"] = Path(args.out)
    elif os.environ.get(OUT_ENV):
        overrides["output_dir"] = Path(os.environ[OUT_ENV])
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "descriptor", None):
        overrides["descriptor"] = Path(args.descriptor)
    return dataclasses.replace(config, **overrides) if overrides else config


def _cmd_build(args) -> int:
    config = _load_config(args)
    result = run_build(config)
    print(
        f"build: {result.report['n_workloads']} workloads, "
        f"{result.report['winner_metrics']['n_clusters']} profiles, "
        f"acquires={result.report['winner_metrics']['acquires_total']:.4f} "
        f"-> {config.output_dir}"
    )
    return 0


# json.dumps({"line": n, "error": text}, sort_keys=True), text given as JSON
_ERROR_LINE = '{"error": %s, "line": %d}\n'


def _line_fragments(model, profiles, policy) -> dict[int, str | Exception]:
    """Each class label's text between a `classify` line's id and its probs,
    with the values predicted under `policy` dumped once per command, or the
    error that predicting them raises."""
    out: dict[int, str | Exception] = {}
    for label in model.class_labels:
        middle = f', "label": {label}, '
        if profiles is not None:
            try:
                group = profiles.group(label)
                predicted = artifacts.jsonable(predict(group, tuple(group.stats), policy))
            except (KeyError, ValueError, ProfilerError) as exc:
                out[label] = exc
                continue
            middle += f'"predicted": {json.dumps(predicted, sort_keys=True)}, '
        out[label] = middle + '"probs": '
    return out


def _probs_template(class_labels) -> tuple[list[int], str]:
    """(the class columns in the JSON string order of their labels, "10"
    before "2"; a %r template of those columns' probabilities that also
    closes the line). json.dumps writes a finite float as float.__repr__, so
    for finite probabilities the template gives the bytes of
    json.dumps(probs, sort_keys=True)."""
    keys = [str(c) for c in class_labels]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return order, "{" + ", ".join(f'"{keys[i]}": %r' for i in order) + "}}\n"


def _classify_chunk(model, fragments, template, chunk: list[tuple[int, str]]) -> None:
    """Route a chunk's valid lines together; write one output line per input
    line, in input order, with malformed lines reported inline. A line is
    its id's JSON, its label's fragment and its distinct row's probs text,
    the bytes json.dumps(doc, sort_keys=True) gives for the whole document:
    a str id is escaped by json.dumps' own ASCII escaper and finite probs
    go through `template`; any other id, or a chunk with a non-finite
    probability, is dumped by json.dumps itself."""
    out: list[str | None] = []
    parsed: list[tuple[int, int, str]] = []  # (output slot, line number, id as JSON)
    values = []
    for line_no, line in chunk:
        try:  # a line nested past the recursion limit fails alone too
            if not line.isascii():  # bytes that are not UTF-8 were read as lone surrogates
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            record = json.loads(line)
            if not isinstance(record, dict):
                raise SchemaError("record is not a JSON object")
            wid = record.get("id")
            if isinstance(wid, str):
                wid = encode_basestring_ascii(wid)
            else:  # json.loads accepts NaN and Infinity, so the echoed id is coerced
                wid = json.dumps(artifacts.jsonable(wid), sort_keys=True)
            values.append(record_values(model, record["metadata"]))
        except (KeyError, ValueError, RecursionError, ProfilerError) as exc:
            out.append(_ERROR_LINE % (json.dumps(str(exc)), line_no))
        else:
            parsed.append((len(out), line_no, wid))
            out.append(None)
    vocab = model.vocabulary
    rows = vocab.encode(MetadataBlock.from_rows(vocab.feature_names, values))
    labels, probs, inverse = classify_encoded(model, rows)
    order, probs_format = template
    if np.isfinite(probs).all():
        ends = [probs_format % tuple(p) for p in probs[:, order].tolist()]
    else:  # json.dumps writes NaN and Infinity, which %r does not
        keys = [str(c) for c in model.class_labels]
        ends = [json.dumps(dict(zip(keys, p)), sort_keys=True) + "}\n" for p in probs.tolist()]
    for (at, line_no, wid), label, k in zip(parsed, labels.tolist(), inverse.tolist()):
        middle = fragments[label]
        if isinstance(middle, Exception):
            out[at] = _ERROR_LINE % (json.dumps(str(middle)), line_no)
        else:
            out[at] = '{"id": ' + wid + middle + ends[k]
    sys.stdout.writelines(out)  # a joined copy of the chunk showed in peak RSS


@contextlib.contextmanager
def _input_text(path: str):
    """The JSONL input as UTF-8 text, with bytes that are not UTF-8 kept as
    lone surrogates, so the line that holds them fails alone. A file is read
    in universal-newline mode and stdin is split at LF only, as sys.stdin
    splits it on POSIX; a file that cannot be opened is a TraceReadError."""
    if path != "-":
        try:
            source = open(path, encoding="utf-8", errors="surrogateescape")
        except OSError as exc:
            raise TraceReadError(f"cannot read input {path}: {exc}") from exc
        with source:
            yield source
        return
    source = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8", errors="surrogateescape",
                              newline="\n")
    try:
        yield source
    finally:
        source.detach()  # sys.stdin's buffer stays open


def _cmd_classify(args) -> int:
    model = load_artifact(Path(args.model), ClassifierModel.from_json)
    profiles = (load_artifact(Path(args.profiles), partial(artifacts.read_record, ProfileSet))
                if args.profiles else None)
    policy = PredictionPolicy()
    if args.policy:
        try:
            policy = artifacts.read_record(PredictionPolicy, json.loads(args.policy))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid --policy: {exc}") from exc
    fragments = _line_fragments(model, profiles, policy)
    template = _probs_template(model.class_labels)

    with _input_text(args.input) as source:
        numbered = ((n, line.strip()) for n, line in enumerate(source, start=1))
        lines = ((n, line) for n, line in numbered if line)
        while chunk := list(itertools.islice(lines, CLASSIFY_CHUNK)):
            _classify_chunk(model, fragments, template, chunk)
    return 0


def _cmd_evaluate(args) -> int:
    config = _load_config(args)
    report = run_evaluate(config, Path(args.holdout))
    print(f"fraction_below_50={report.fraction_below_50:.4f}")
    return 0


def _cmd_feedback(args) -> int:
    config = _load_config(args)
    report = run_feedback_command(config, Path(args.stream))
    print(
        f"feedback: {report.events_total} events, "
        f"{report.violations_total} violations, "
        f"{len(report.triggers)} triggers, {report.adopted_count} adopted"
    )
    return 0


def _cmd_hopkins(args) -> int:
    schema = TraceSchema.load(args.descriptor)
    dataset, _ = load_trace(args.trace, schema)
    result = hopkins(runtime_matrix(dataset), args.fraction, seed=args.seed)
    print(json.dumps(artifacts.jsonable(result), sort_keys=True))
    return 0


def _cmd_sample(args) -> int:
    schema = TraceSchema.load(args.descriptor)
    dataset, _ = load_trace(args.trace, schema)
    sampled = stratified_sample(dataset, args.stratify_on, args.target, seed=args.seed)
    out = Path(args.out)
    write_trace(sampled, out)
    artifacts.write_json(out.with_suffix(".descriptor.json"), schema_for(sampled))
    print(f"sample: {len(sampled)} of {len(dataset)} workloads -> {out}")
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args`` does
    not change it, and every call of ``main`` parses with the same one."""
    parser = argparse.ArgumentParser(
        prog="workload-profiler",
        description="Workload profiling: cluster usage traces, classify new "
        "workloads from metadata, predict runtime behavior, and keep profiles "
        "fresh with a feedback loop.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="cluster a trace and train the classifier")
    p.add_argument("--config", required=True)
    p.add_argument("--trace", help="override the trace path")
    p.add_argument("--descriptor", help="override the descriptor path")
    p.add_argument("--out", help="override the output directory")
    p.add_argument("--seed", type=int, help="override the seed")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("classify", help="label workloads from metadata (JSON lines)")
    p.add_argument("--model", required=True)
    p.add_argument("--profiles", help="profile set for behavior prediction")
    p.add_argument("--policy", help="prediction policy as inline JSON")
    p.add_argument("--input", default="-", help="JSONL input path or - for stdin")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("evaluate", help="score predictions on a holdout trace")
    p.add_argument("--config", required=True)
    p.add_argument("--holdout", required=True)
    p.add_argument("--out", help="override the output directory")
    p.add_argument("--seed", type=int, help="override the seed")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("feedback", help="run the feedback loop over a stream trace")
    p.add_argument("--config", required=True)
    p.add_argument("--stream", required=True)
    p.add_argument("--out", help="override the output directory")
    p.add_argument("--seed", type=int, help="override the seed")
    p.set_defaults(func=_cmd_feedback)

    p = sub.add_parser("hopkins", help="clustering-tendency score of a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--descriptor", required=True)
    p.add_argument("--fraction", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_hopkins)

    p = sub.add_parser("sample", help="stratified sample of a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--descriptor", required=True)
    p.add_argument("--stratify-on", required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ProfilerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
