"""Config-driven experiment runner.

Every experiment is a JSON manifest plus a few flag overrides (--seed, --reps,
--out, --threads). Artifacts (CSV or JSON) go to --out or stdout; progress
goes to stderr so stdout stays machine-clean. Exit codes: 0 success, 2 config
validation failure, 1 internal error. Worker count never changes output bytes.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from . import evaluation, hardness, stats
from .algorithms import ExplicitT, effective_rank, rule_from_config, rule_to_config
from .distributions import Instance, instance_from_json, instance_to_json, load_instance
from .evaluation import (
    MC_POOL_CAP,
    derive_seed,
    dominance_check,
    mc_ratio,
    ordinal_upper_bound_sweep,
    semi_exact_ordinal,
)

COMMANDS = (
    "eval",
    "dominance",
    "ordinal-sweep",
    "hardness-verify",
    "tv-convergence",
    "stats-check",
)


class ConfigError(ValueError):
    """Raised for invalid manifests; the message names the offending field."""


@dataclass
class ExperimentConfig:
    command: str
    payload: dict
    seed: int | None
    reps: int | None
    out: str | None
    threads: int


def _fail(field: str, detail: str) -> "ConfigError":
    return ConfigError(f"field '{field}': {detail}")


def _require(payload: Mapping, field: str) -> Any:
    if field not in payload:
        raise _fail(field, "is required")
    return payload[field]


def _require_int(payload: Mapping, field: str, minimum: int | None = None) -> int:
    value = _require(payload, field)
    if not isinstance(value, int) or isinstance(value, bool):
        raise _fail(field, f"must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise _fail(field, f"must be >= {minimum}, got {value}")
    return value


def _int_list(payload: Mapping, field: str, minimum: int = 1) -> list[int]:
    value = _require(payload, field)
    if isinstance(value, int) and not isinstance(value, bool):
        value = [value]
    if not isinstance(value, list) or not value:
        raise _fail(field, "must be an integer or a nonempty list of integers")
    out = []
    for v in value:
        if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
            raise _fail(field, f"entries must be integers >= {minimum}, got {v!r}")
        out.append(v)
    return out


def _resolve_instance(entry: Mapping, pos: int) -> tuple[str, Instance]:
    if not isinstance(entry, Mapping):
        raise _fail(f"instances[{pos}]", "must be an object")
    inst_id = entry.get("id", f"instance{pos}")
    if "boxes" in entry:
        try:
            return inst_id, instance_from_json(entry)
        except ValueError as exc:
            raise _fail(f"instances[{pos}].boxes", str(exc)) from None
    if "file" in entry:
        try:
            return inst_id, load_instance(entry["file"])
        except OSError as exc:
            raise _fail(f"instances[{pos}].file", str(exc)) from None
        except ValueError as exc:
            raise _fail(f"instances[{pos}].file", str(exc)) from None
    if "generator" in entry:
        gen = entry["generator"]
        if not isinstance(gen, Mapping) or "name" not in gen:
            raise _fail(f"instances[{pos}].generator", "must be an object with a 'name'")
        name = gen["name"]
        if name == "case1":
            k = _require_int(gen, "k", 2)
            return inst_id, evaluation.case1_instance(k)
        if name == "case2":
            k = _require_int(gen, "k", 1)
            n = gen.get("n", evaluation.default_case2_boxes(k))
            if not isinstance(n, int) or n < 2:
                raise _fail(f"instances[{pos}].generator.n", "must be an integer >= 2")
            return inst_id, evaluation.case2_instance(k, n)
        raise _fail(f"instances[{pos}].generator.name", f"unknown generator {name!r}")
    raise _fail(f"instances[{pos}]", "needs one of 'boxes', 'file', or 'generator'")


def _resolve_instances(payload: Mapping) -> list[tuple[str, Instance]]:
    entries = _require(payload, "instances")
    if not isinstance(entries, list) or not entries:
        raise _fail("instances", "must be a nonempty list")
    resolved = [_resolve_instance(entry, i) for i, entry in enumerate(entries)]
    for inst_id, inst in resolved:
        if all(hi == 0.0 for box in inst.boxes for w, _, hi in box.segments if w > 0.0):
            raise _fail("instances", f"instance {inst_id!r} is 0 in every box, so its prophet value is 0")
    return resolved


def _resolve_rule(payload: Mapping):
    rule_obj = _require(payload, "rule")
    if not isinstance(rule_obj, Mapping):
        raise _fail("rule", "must be an object")
    try:
        return rule_from_config(rule_obj)
    except ValueError as exc:
        raise _fail("rule", str(exc)) from None


def _need_seed(config: ExperimentConfig) -> int:
    if config.seed is None:
        raise _fail("seed", "is required for stochastic commands")
    return config.seed


def _check_mc_pool(instances: list[tuple[str, Instance]], k: int) -> None:
    for inst_id, inst in instances:
        if inst.n * k > MC_POOL_CAP:
            raise _fail(
                "k",
                f"n*k = {inst.n * k} samples of instance {inst_id!r} exceed the "
                f"Monte Carlo pool cap of {MC_POOL_CAP}",
            )


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


def _need_reps(config: ExperimentConfig) -> int:
    if config.reps is None:
        raise _fail("reps", "is required")
    if config.reps < 1:
        raise _fail("reps", f"must be >= 1, got {config.reps}")
    return config.reps


# -- subcommands -------------------------------------------------------------------


def _run_eval(config: ExperimentConfig, out: io.TextIOBase) -> None:
    payload = config.payload
    instances = _resolve_instances(payload)
    rule = _resolve_rule(payload)
    ks = _int_list(payload, "k")
    reps = _need_reps(config)
    seed = _need_seed(config)
    method = payload.get("method", "mc")
    if method not in ("mc", "semi_exact"):
        raise _fail("method", f"must be 'mc' or 'semi_exact', got {method!r}")
    rank = effective_rank(rule)
    for inst_id, inst in instances:
        if rank is not None and rank > inst.n * min(ks):
            raise _fail(
                "rule.rank",
                f"rank {rank} exceeds n*k = {inst.n * min(ks)} samples of instance {inst_id!r}",
            )
    if method == "mc":
        _check_mc_pool(instances, max(ks))
    lines = ["instance_id,rule,k,l,reps,seed,alg_value,prophet_value,ratio,ci"]
    for idx, (inst_id, inst) in enumerate(instances):
        for k in ks:
            run_seed = derive_seed(seed, idx, k)
            if method == "semi_exact":
                if isinstance(rule, ExplicitT):
                    raise _fail("method", "semi_exact requires an ordinal rule")
                report = semi_exact_ordinal(
                    inst, k, rank, reps, run_seed, threads=config.threads
                )
            else:
                report = mc_ratio(inst, rule, k, reps, run_seed, threads=config.threads)
            lines.append(_csv_row(
                inst_id, rule_to_config(rule)["rule"], k, rank, report.reps, report.seed,
                report.alg_value, report.prophet_value, report.ratio, report.ci_halfwidth,
            ))
            print(f"eval {inst_id} k={k}: ratio={report.ratio:.6f}", file=sys.stderr)
    out.write("\n".join(lines) + "\n")


def _run_dominance(config: ExperimentConfig, out: io.TextIOBase) -> None:
    payload = config.payload
    instances = _resolve_instances(payload)
    rule = _resolve_rule(payload)
    k = _require_int(payload, "k", 1)
    gamma = _require(payload, "gamma")
    if not isinstance(gamma, (int, float)) or isinstance(gamma, bool) or not 0.0 <= gamma <= 1.0:
        raise _fail("gamma", f"must be a probability, got {gamma!r}")
    mode = payload.get("mode", "exact")
    if mode not in ("exact", "mc"):
        raise _fail("mode", f"must be 'exact' or 'mc', got {mode!r}")
    reps = 0
    seed = 0
    if mode == "mc":
        reps = _need_reps(config)
        seed = _need_seed(config)
        _check_mc_pool(instances, k)
    lines = ["instance_id,rule,k,gamma,mode,worst_x,worst_ratio,passed,reps,seed"]
    for idx, (inst_id, inst) in enumerate(instances):
        report = dominance_check(
            inst,
            rule,
            k,
            float(gamma),
            mode=mode,
            reps=reps,
            seed=derive_seed(seed, idx) if mode == "mc" else 0,
            threads=config.threads,
        )
        lines.append(_csv_row(
            inst_id, rule_to_config(rule)["rule"], k, float(gamma), mode,
            report.worst_x, report.worst_ratio, report.passed, report.reps, report.seed,
        ))
        print(f"dominance {inst_id}: worst={report.worst_ratio:.6f}", file=sys.stderr)
    out.write("\n".join(lines) + "\n")


def _run_ordinal_sweep(config: ExperimentConfig, out: io.TextIOBase) -> None:
    payload = config.payload
    k = _require_int(payload, "k", 2)
    ranks = _int_list(payload, "ranks")
    for rank in ranks:
        if rank > 2 * k:
            raise _fail("ranks", f"rank {rank} exceeds the 2k = {2 * k} samples of case1")
    reps = _need_reps(config)
    seed = _need_seed(config)
    rows = ordinal_upper_bound_sweep(k, ranks, reps, seed, threads=config.threads)
    lines = ["k,l,case1_ratio,case1_ci,case2_ratio,case2_ci,min_ratio,reps,seed"]
    for row in rows:
        lines.append(_csv_row(
            k, row.rank, row.case1.ratio, row.case1.ratio_ci_halfwidth,
            row.case2.ratio, row.case2.ratio_ci_halfwidth, row.min_ratio, reps, seed,
        ))
        print(f"sweep l={row.rank}: min={row.min_ratio:.6f}", file=sys.stderr)
    out.write("\n".join(lines) + "\n")


def _run_hardness_verify(config: ExperimentConfig, out: io.TextIOBase) -> None:
    payload = config.payload
    policy_path = payload.get("policy")
    if not policy_path:
        raise _fail("policy", "is required (path to a policy JSON file)")
    try:
        policy = hardness.load_policy(policy_path)
    except OSError as exc:
        raise _fail("policy", str(exc)) from None
    except ValueError as exc:
        raise _fail("policy", str(exc)) from None
    k = payload.get("k", policy.k)
    if not isinstance(k, int) or isinstance(k, bool):
        raise _fail("k", f"must be an integer, got {k!r}")
    if k != policy.k:
        raise _fail("k", f"must match the policy's k={policy.k}, got {k}")
    kwargs = {}
    for name in ("xi", "delta1", "delta2", "eps"):
        if name in payload:
            value = payload[name]
            if not isinstance(value, (int, float)) or isinstance(value, bool) or not 0.0 < value < 1.0:
                raise _fail(name, f"must be a number in (0, 1), got {value!r}")
            kwargs[name] = float(value)
    try:
        params = hardness.HardParams(k=k, **kwargs)
    except ValueError as exc:
        raise _fail("k", str(exc)) from None
    vec, ratio = hardness.adversary(policy, params)
    inst = hardness.family_instance(vec, params)
    result = {
        "k": k,
        "policy": policy_path,
        "ratio": ratio,
        "alg_value": hardness.eval_q_policy(vec, params, policy),
        "prophet_value": hardness.family_prophet_value(vec, params),
        "p": list(vec.values),
        "instance": instance_to_json(inst),
    }
    print(f"hardness-verify k={k}: ratio={ratio:.6f}", file=sys.stderr)
    out.write(json.dumps(result, sort_keys=True, indent=2) + "\n")


def _run_tv_convergence(config: ExperimentConfig, out: io.TextIOBase) -> None:
    payload = config.payload
    family = _require(payload, "family")
    lines = ["family,param,secondary,tv"]
    if family == "binomial_normal":
        ns = _int_list(payload, "n")
        ps = _require(payload, "p")
        if isinstance(ps, (int, float)):
            ps = [ps]
        for p in ps:
            if not isinstance(p, (int, float)) or not 0.0 < p < 1.0:
                raise _fail("p", f"entries must lie in (0, 1), got {p!r}")
            for n in ns:
                tv = stats.tv_binom_vs_normal(n, float(p))
                lines.append(_csv_row("binomial_normal", n, float(p), tv))
                print(f"tv binom n={n} p={p}: {tv:.6f}", file=sys.stderr)
    elif family == "count_mixture":
        ks = _int_list(payload, "k")
        eps = _require(payload, "eps")
        if not isinstance(eps, (int, float)) or not 0.0 < eps < 1.0:
            raise _fail("eps", f"must lie in (0, 1), got {eps!r}")
        for k in ks:
            params = hardness.HardParams(k=k, eps=float(eps))
            _, mix, star = hardness.build_dd_mixture(params)
            tv = stats.tv_distance(mix, star)
            lines.append(_csv_row("count_mixture", k, float(eps), tv))
            print(f"tv mixture k={k}: {tv:.6f}", file=sys.stderr)
    else:
        raise _fail("family", f"must be 'binomial_normal' or 'count_mixture', got {family!r}")
    out.write("\n".join(lines) + "\n")


def _run_stats_check(config: ExperimentConfig, out: io.TextIOBase) -> None:
    payload = config.payload
    seed = _need_seed(config)
    result: dict[str, Any] = {}
    if "chernoff" in payload:
        spec = payload["chernoff"]
        n = _require_int(spec, "n", 1)
        p = _require(spec, "p")
        if not isinstance(p, (int, float)) or isinstance(p, bool) or not 0.0 <= p <= 1.0:
            raise _fail("chernoff.p", f"must be a probability, got {p!r}")
        deltas = _require(spec, "deltas")
        if isinstance(deltas, (int, float)):
            deltas = [deltas]
        reps = spec.get("reps", config.reps)
        if not isinstance(reps, int) or reps < 10_000:
            raise _fail("chernoff.reps", "must be an integer >= 10000")
        rows = []
        for i, delta in enumerate(deltas):
            if not isinstance(delta, (int, float)) or not 0.0 < delta < 1.0:
                raise _fail("chernoff.deltas", f"entries must lie in (0, 1), got {delta!r}")
            rng = np.random.default_rng(derive_seed(seed, 1, i))
            report = stats.chernoff_check([float(p)] * n, float(delta), reps, rng)
            rows.append(
                {
                    "delta": float(delta),
                    "mu": report.mu,
                    "empirical": report.empirical,
                    "bound": report.bound,
                    "stderr": report.stderr,
                    "passed": report.passed,
                }
            )
            print(f"chernoff delta={delta}: emp={report.empirical:.2e}", file=sys.stderr)
        result["chernoff"] = rows
    if "sandwich" in payload:
        probes = _require_int(payload["sandwich"], "probes", 1)
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
    if not result:
        raise _fail("checks", "config must include 'chernoff' and/or 'sandwich'")
    out.write(json.dumps(result, sort_keys=True, indent=2) + "\n")


_RUNNERS = {
    "eval": _run_eval,
    "dominance": _run_dominance,
    "ordinal-sweep": _run_ordinal_sweep,
    "hardness-verify": _run_hardness_verify,
    "tv-convergence": _run_tv_convergence,
    "stats-check": _run_stats_check,
}


def run(config: ExperimentConfig) -> None:
    """Execute a validated config, writing the artifact to config.out or stdout."""
    runner = _RUNNERS[config.command]
    if config.out:
        with open(config.out, "w", encoding="utf-8", newline="\n") as fh:
            runner(config, fh)
    else:
        runner(config, sys.stdout)


def build_config(command: str, args: argparse.Namespace) -> ExperimentConfig:
    payload: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except OSError as exc:
            raise _fail("config", str(exc)) from None
        except json.JSONDecodeError as exc:
            raise _fail("config", f"invalid JSON ({exc})") from None
        if not isinstance(payload, dict):
            raise _fail("config", "top level must be a JSON object")
    declared = payload.get("command")
    if declared is not None and declared != command:
        raise _fail("command", f"config says {declared!r} but subcommand is {command!r}")
    if command == "hardness-verify":
        if getattr(args, "policy", None):
            payload["policy"] = args.policy
        if getattr(args, "k", None) is not None:
            payload["k"] = args.k
    seed = args.seed if args.seed is not None else payload.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise _fail("seed", f"must be an integer, got {seed!r}")
    if seed is not None and not 0 <= seed < (1 << 64):
        raise _fail("seed", "must fit in 64 bits")
    reps = args.reps if args.reps is not None else payload.get("reps")
    if reps is not None and (not isinstance(reps, int) or isinstance(reps, bool)):
        raise _fail("reps", f"must be an integer, got {reps!r}")
    threads = args.threads if args.threads else (os.cpu_count() or 1)
    if threads < 1:
        raise _fail("threads", "must be >= 1")
    return ExperimentConfig(
        command=command,
        payload=payload,
        seed=seed,
        reps=reps,
        out=args.out,
        threads=threads,
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="prophet-samples",
        description="Config-driven prophet inequality experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON experiment manifest")
        p.add_argument("--seed", type=int, help="override the manifest seed")
        p.add_argument("--reps", type=int, help="override the manifest reps")
        p.add_argument("--out", help="artifact path (default stdout)")
        p.add_argument("--threads", type=int, default=0, help="worker count (default: machine)")
        if name == "hardness-verify":
            p.add_argument("--policy", help="policy JSON file")
            p.add_argument("--k", type=int, help="samples per box")
    args = parser.parse_args(argv)
    try:
        config = build_config(args.command, args)
        run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
