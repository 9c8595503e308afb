"""Config-driven experiment runner.

Every experiment is a JSON manifest, read as written: a key that nothing
reads fails, and no flag overrides a field. Besides --config, a command takes
--out, and eval takes --threads, a worker count that never changes output
bytes. The artifact goes to --out, opened only after the command has
succeeded, or to stdout; progress goes to stderr. Exit codes: 0 success, 2
config validation failure (the message names the field by its dotted path,
such as chernoff.deltas or instances[0].generator.k), 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict
from typing import Any, Callable, Iterator, Mapping, Sequence

from . import evaluation, hardness, stats
from .algorithms import effective_rank, rule_from_config, rule_to_config
from .distributions import Instance, _is_int, _is_number, instance_from_json, instance_to_json, load_instance
from .evaluation import (
    CASE1_MAX_K,
    CASE2_MAX_K,
    MAX_THREADS,
    MC_POOL_CAP,
    derive_seed,
    dominance_check,
    mc_ratio,
    ordinal_upper_bound_sweep,
    semi_exact_ordinal,
)

_SEED_MAX = (1 << 64) - 1
_REQUIRED = object()


class ConfigError(ValueError):
    """Raised for invalid manifests; the message names the offending field."""


def _fail(field: str, detail: str) -> "ConfigError":
    return ConfigError(f"field '{field}': {detail}")


@contextmanager
def _on(field: str) -> Iterator[None]:
    """Report a ValueError or OSError raised in the block as a config error on `field`."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, OSError) as exc:
        raise _fail(field, str(exc)) from None


def _int(value: Any, field: str, lo: int, hi: int | None = None) -> int:
    if not _is_int(value):
        raise _fail(field, f"must be an integer, got {value!r}")
    if value < lo or (hi is not None and value > hi):
        span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise _fail(field, f"must be {span}, got {value}")
    return value


def _number(value: Any, field: str, lo: float, hi: float, open_: bool = False) -> float:
    """A JSON number in [lo, hi], or in (lo, hi) when open_; booleans and NaN fail."""
    if not (_is_number(value) and (lo < value < hi if open_ else lo <= value <= hi)):
        span = f"({lo}, {hi})" if open_ else f"[{lo}, {hi}]"
        raise _fail(field, f"must be a number in {span}, got {value!r}")
    return float(value)


def _section(value: Any, path: str) -> "_Fields":
    if not isinstance(value, Mapping):
        raise _fail(path, f"must be a JSON object, got {value!r}")
    return _Fields(value, path)


class _Fields:
    """One JSON object of a manifest; its readers name fields by dotted path."""

    def __init__(self, obj: Mapping, path: str = "") -> None:
        self.obj = obj
        self.path = path
        self.asked: set[str] = set()

    def name(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def get(self, key: str, default: Any = _REQUIRED) -> Any:
        self.asked.add(key)
        if key in self.obj:
            return self.obj[key]
        if default is _REQUIRED:
            raise _fail(self.name(key), "is required")
        return default

    def integer(self, key: str, lo: int, hi: int | None = None) -> int:
        return _int(self.get(key), self.name(key), lo, hi)

    def number(self, key: str, lo: float, hi: float, open_: bool = False) -> float:
        return _number(self.get(key), self.name(key), lo, hi, open_)

    def scalars(self, key: str, read: Callable, *bounds: Any) -> list:
        """One value or a nonempty list of them, each checked by read(value, field, *bounds)."""
        value = self.get(key)
        values = value if isinstance(value, list) else [value]
        if not values:
            raise _fail(self.name(key), "must be a value or a nonempty list")
        return [read(v, self.name(key), *bounds) for v in values]

    def choice(self, key: str, options: tuple[str, ...], default: Any = _REQUIRED) -> str:
        value = self.get(key, default)
        if value not in options:
            raise _fail(self.name(key), f"must be one of {', '.join(map(repr, options))}, got {value!r}")
        return value

    def section(self, key: str) -> "_Fields":
        return _section(self.get(key), self.name(key))

    def file(self, key: str) -> str:
        value = self.get(key)
        if not isinstance(value, str) or not value:
            raise _fail(self.name(key), f"must be a file path string, got {value!r}")
        return value

    def done(self) -> None:
        """Reject a key that no reader has asked for, so that a misspelled or
        unused key fails instead of being ignored."""
        for key in self.obj:
            if key not in self.asked:
                asked = ", ".join(sorted(self.asked))
                raise _fail(self.name(key), f"is never read; the fields read are {asked}")


def _instance(entry: _Fields) -> Instance:
    if "boxes" in entry.obj:
        boxes = entry.get("boxes")
        with _on(entry.name("boxes")):
            return instance_from_json({"boxes": boxes})
    if "file" in entry.obj:
        path = entry.file("file")
        with _on(entry.name("file")):
            return load_instance(path)
    if "generator" in entry.obj:
        gen = entry.section("generator")
        name = gen.get("name")
        if name == "case1":
            inst = evaluation.case1_instance(gen.integer("k", 2, CASE1_MAX_K))
        elif name == "case2":
            k = gen.integer("k", 1, CASE2_MAX_K)
            inst = evaluation.case2_instance(k, evaluation.default_case2_boxes(k))
        else:
            raise _fail(gen.name("name"), f"unknown generator {name!r}")
        gen.done()
        return inst
    raise _fail(entry.path, "needs one of 'boxes', 'file', or 'generator'")


def _instance_id(entry: _Fields, pos: int) -> str | int:
    """An instance's id in the CSV: an integer, or a string that needs no quoting."""
    value = entry.get("id", f"instance{pos}")
    plain = isinstance(value, str) and not any(c in value for c in ',"\r\n')
    if not (plain or _is_int(value)):
        raise _fail(entry.name("id"), f"must be an integer or a string without , \" CR or LF, got {value!r}")
    return value


def _instances(fields: _Fields) -> list[tuple[str | int, Instance]]:
    entries = fields.get("instances")
    if not isinstance(entries, list) or not entries:
        raise _fail("instances", "must be a nonempty list")
    resolved = []
    for pos, obj in enumerate(entries):
        entry = _section(obj, f"instances[{pos}]")
        inst_id, inst = _instance_id(entry, pos), _instance(entry)
        entry.done()
        if all(hi == 0.0 for box in inst.boxes for w, _, hi in box.segments if w > 0.0):
            raise _fail("instances", f"instance {inst_id!r} is 0 in every box, so its prophet value is 0")
        resolved.append((inst_id, inst))
    return resolved


def _rule(fields: _Fields):
    section = fields.section("rule")
    with _on("rule"):
        return rule_from_config(section.obj)


def _check_pools(instances: list[tuple[Any, Instance]], rule, ks: list[int], mc: bool) -> int | None:
    """The rule's rank, checked before anything runs: it must fit the smallest
    pool n*k, and a Monte Carlo pool must fit MC_POOL_CAP."""
    rank = effective_rank(rule)
    for inst_id, inst in instances:
        if rank is not None and rank > inst.n * min(ks):
            raise _fail(
                "rule.rank",
                f"rank {rank} exceeds n*k = {inst.n * min(ks)} samples of instance {inst_id!r}",
            )
        if mc and inst.n * max(ks) > MC_POOL_CAP:
            raise _fail(
                "k",
                f"n*k = {inst.n * max(ks)} samples of instance {inst_id!r} exceed the "
                f"Monte Carlo pool cap of {MC_POOL_CAP}",
            )
    return rank


def _csv_row(*fields: Any) -> str:
    """One CSV line: floats by repr, booleans lower-case, None as an empty field."""
    out = []
    for f in fields:
        if f is None:
            out.append("")
        elif isinstance(f, bool):
            out.append(str(f).lower())
        elif isinstance(f, float):
            out.append(repr(float(f)))
        else:
            out.append(str(f))
    return ",".join(out)


# -- subcommands -------------------------------------------------------------------
# Each runner reads its fields, checks with fields.done() that the manifest
# holds no other top-level key, runs, and returns the artifact text. Only
# eval runs a worker pool, so only eval takes a thread count.


def _run_eval(fields: _Fields, threads: int) -> str:
    instances = _instances(fields)
    rule = _rule(fields)
    ks = fields.scalars("k", _int, 1)
    reps = fields.integer("reps", 1)
    seed = fields.integer("seed", 0, _SEED_MAX)
    method = fields.choice("method", ("mc", "semi_exact"), "mc")
    rank = _check_pools(instances, rule, ks, mc=method == "mc")
    if method == "semi_exact" and rank is None:
        raise _fail("method", "semi_exact requires an ordinal rule")
    for inst_id, inst in instances:
        try:
            inst.check_prophet_cost()
            if method == "semi_exact":
                evaluation.check_strata(inst)
        except ValueError as exc:
            raise _fail("instances", f"instance {inst_id!r}: {exc}") from None
    fields.done()
    lines = ["instance_id,rule,k,l,reps,seed,alg_value,prophet_value,ratio,ci"]
    for idx, (inst_id, inst) in enumerate(instances):
        for k in ks:
            run_seed = derive_seed(seed, idx, k)
            if method == "semi_exact":
                report = semi_exact_ordinal(inst, k, rank, reps, run_seed, threads=threads)
            else:
                report = mc_ratio(inst, rule, k, reps, run_seed, threads=threads)
            lines.append(_csv_row(
                inst_id, rule_to_config(rule)["rule"], k, rank, reps, run_seed,
                report.alg_value, report.prophet_value, report.ratio, report.ci_halfwidth,
            ))
            print(f"eval {inst_id} k={k}: ratio={report.ratio:.6f}", file=sys.stderr)
    return "\n".join(lines) + "\n"


def _run_dominance(fields: _Fields) -> str:
    instances = _instances(fields)
    rule = _rule(fields)
    k = fields.integer("k", 1)
    gamma = fields.number("gamma", 0.0, 1.0)
    _check_pools(instances, rule, [k], mc=False)
    fields.done()
    lines = ["instance_id,rule,k,gamma,worst_x,worst_ratio,passed"]
    for idx, (inst_id, inst) in enumerate(instances):
        with _on(f"instances[{idx}]"):
            report = dominance_check(inst, rule, k, gamma)
        lines.append(_csv_row(
            inst_id, rule_to_config(rule)["rule"], k, gamma,
            report.worst_x, report.worst_ratio, report.passed,
        ))
        print(f"dominance {inst_id}: worst={report.worst_ratio:.6f}", file=sys.stderr)
    return "\n".join(lines) + "\n"


def _run_ordinal_sweep(fields: _Fields) -> str:
    k = fields.integer("k", 2, CASE1_MAX_K)
    # case1 has two boxes, so its pool of 2k samples bounds the rank
    ranks = fields.scalars("ranks", _int, 1, 2 * k)
    fields.done()
    lines = ["k,l,case1_ratio,case2_ratio,min_ratio"]
    for row in ordinal_upper_bound_sweep(k, ranks):
        lines.append(_csv_row(k, row.rank, row.case1.ratio, row.case2.ratio, row.min_ratio))
        print(f"sweep l={row.rank}: min={row.min_ratio:.6f}", file=sys.stderr)
    return "\n".join(lines) + "\n"


def _run_hardness_verify(fields: _Fields) -> str:
    policy_path = fields.file("policy")
    with _on("policy"):
        policy = hardness.load_policy(policy_path)
    fields.done()
    params = hardness.HardParams(k=policy.k)
    vec, ratio = hardness.adversary(policy, params)
    inst = hardness.family_instance(vec, params)
    result = {
        "k": params.k,
        "policy": policy_path,
        "ratio": ratio,
        "alg_value": hardness.eval_q_policy(vec, params, policy),
        "prophet_value": hardness.family_prophet_value(vec, params),
        "p": list(vec.values),
        "instance": instance_to_json(inst),
    }
    print(f"hardness-verify k={params.k}: ratio={ratio:.6f}", file=sys.stderr)
    return json.dumps(result, sort_keys=True, indent=2) + "\n"


def _run_tv_convergence(fields: _Fields) -> str:
    family = fields.choice("family", ("binomial_normal", "count_mixture"))
    lines = ["family,param,secondary,tv"]
    if family == "binomial_normal":
        ns = fields.scalars("n", _int, 1, stats.SIZE_CAP)
        ps = fields.scalars("p", _number, 0.0, 1.0, True)
        fields.done()
        for p in ps:
            for n in ns:
                tv = stats.tv_binom_vs_normal(n, p)
                lines.append(_csv_row("binomial_normal", n, p, tv))
                print(f"tv binom n={n} p={p}: {tv:.6f}", file=sys.stderr)
    else:
        ks = fields.scalars("k", _int, 1)
        eps = fields.number("eps", 0.0, 1.0, open_=True)
        with _on("k"):
            all_params = [hardness.HardParams(k=k, eps=eps) for k in ks]
        fields.done()
        for params in all_params:
            _, mix, star = hardness.build_dd_mixture(params)
            tv = stats.tv_distance(mix, star)
            lines.append(_csv_row("count_mixture", params.k, eps, tv))
            print(f"tv mixture k={params.k}: {tv:.6f}", file=sys.stderr)
    return "\n".join(lines) + "\n"


def _run_stats_check(fields: _Fields) -> str:
    chernoff = "chernoff" in fields.obj
    if chernoff:
        spec = fields.section("chernoff")
        n = spec.integer("n", 1, stats.SIZE_CAP)
        p = spec.number("p", 0.0, 1.0)
        deltas = spec.scalars("deltas", _number, 0.0, 1.0, True)
        spec.done()
    probes = None
    if "sandwich" in fields.obj:
        sandwich = fields.section("sandwich")
        probes = sandwich.integer("probes", 1)
        sandwich.done()
        # only the sandwich sweep draws, so only it reads the seed
        seed = fields.integer("seed", 0, _SEED_MAX)
    if not chernoff and probes is None:
        raise _fail("checks", "config must include 'chernoff' and/or 'sandwich'")
    fields.done()
    result: dict[str, Any] = {}
    if chernoff:
        rows = []
        for delta in deltas:
            report = stats.chernoff_check([p] * n, delta)
            rows.append({**asdict(report), "passed": report.passed})
            print(f"chernoff delta={delta}: tail={report.tail:.2e}", file=sys.stderr)
        result["chernoff"] = rows
    if probes is not None:
        violations, worst = evaluation.diagnostics_sandwich_sweep(
            probes, derive_seed(seed, 2)
        )
        result["sandwich"] = {
            "probes": probes,
            "violations": violations,
            "worst_excess": worst,
            "passed": violations == 0,
        }
        print(f"sandwich probes={probes}: violations={violations}", file=sys.stderr)
    return json.dumps(result, sort_keys=True, indent=2) + "\n"


_RUNNERS = {
    "eval": _run_eval,
    "dominance": _run_dominance,
    "ordinal-sweep": _run_ordinal_sweep,
    "hardness-verify": _run_hardness_verify,
    "tv-convergence": _run_tv_convergence,
    "stats-check": _run_stats_check,
}


def _run(args: argparse.Namespace) -> None:
    """Read the manifest and run the command.

    The artifact goes to --out or stdout. --out is opened only after the
    command has succeeded, so a failed run leaves an existing file as it was.
    """
    with _on("config"), open(args.config, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise _fail("config", "top level must be a JSON object")
    fields = _Fields(payload)
    declared = fields.get("command", None)
    if declared is not None and declared != args.command:
        raise _fail("command", f"config says {declared!r} but subcommand is {args.command!r}")
    if args.command == "eval":
        threads = args.threads if args.threads else min(os.cpu_count() or 1, MAX_THREADS)
        text = _run_eval(fields, _int(threads, "threads", 1, MAX_THREADS))
    else:
        text = _RUNNERS[args.command](fields)
    if not args.out:
        sys.stdout.write(text)
        return
    with _on("out"), open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="prophet-samples",
        description="Config-driven prophet inequality experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment manifest")
        p.add_argument("--out", help="artifact path (default stdout)")
        if name == "eval":
            p.add_argument("--threads", type=int, default=0, help="worker count (default: machine)")
    args = parser.parse_args(argv)
    try:
        _run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
