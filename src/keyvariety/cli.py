"""Command-line front end: case selection, scan configuration, orchestration
of all checks, and canonical JSON report emission.

Reports are byte-identical for a fixed config and tool version: records are
emitted in a deterministic order, JSON keys are sorted, and the elapsed_ms
field is always 0 in the file (wall-clock timings go to stderr).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

from . import __version__
from .algebra import PointAffineRep, SmallPrime
from .catalog import (ALL_CASES, CASE_ALIASES, CASE_SHORT, MAIN_CASES,
                      build_case, pinned_coordinate_change,
                      plane_containment_check)
from .incidence import (FIBER_CASES, base_points, clear_base_points,
                        fiber_birationality_check, fiber_over,
                        g4_intersection_plane_fiber_check,
                        g5_plane_fiber_dichotomy, g6q_vertex_fiber_oracle,
                        g8_plane_fiber_profile, count_two_subspaces,
                        gaussian_binomial_2, projected_veronese_points)
from .invariants import (BudgetExceeded, _on_zero_block, ci_degree,
                         estimate_dimension, grassmann_degree,
                         hilbert_ci_degree, singular_scan,
                         two_path_count_check)
from .numerology import (case_table_check, normal_bundle_ledger,
                         primitivity_checks, run_ledger)
from .projspace import clear_point_sets
from .sections import (DEFAULT_SECTION_SEEDS, SectionSpec,
                       _forms_independent_mod_p, cut, parse_section_file,
                       random_section, section_report)

ALL_CHECKS = ("count", "dimension", "singular-locus", "fibers", "degrees",
              "ledger", "sections")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    cases: tuple = MAIN_CASES
    primes: tuple = (2, 3)
    checks: tuple = ALL_CHECKS
    output_path: str | None = None


@dataclass
class CheckRecord:
    check: str
    case: str
    prime: int | None
    expected: object
    observed: object
    verdict: str  # pass | fail | info
    anchor: str

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "case": self.case,
            "prime": self.prime,
            "expected": _jsonable(self.expected),
            "observed": _jsonable(self.observed),
            "verdict": self.verdict,
            "anchor": self.anchor,
            "elapsed_ms": 0,
        }


def _jsonable(val):
    if isinstance(val, (list, tuple)):
        return [_jsonable(v) for v in val]
    if isinstance(val, dict):
        return {str(k): _jsonable(v) for k, v in sorted(val.items(), key=lambda kv: str(kv[0]))}
    if isinstance(val, (bool, int, str)) or val is None:
        return val
    return str(val)


def _rec(check, case, prime, expected, observed, anchor,
         ok: bool | None = None) -> CheckRecord:
    """ok overrides the equality comparison when observed carries extra
    diagnostic fields beyond the expected values."""
    if ok is None:
        ok = expected == observed
    return CheckRecord(check, case, prime, expected, observed,
                       "pass" if ok else "fail", anchor)


def parse_config(path: str) -> RunConfig:
    """Flat key=value config with comma-separated lists."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    values: dict[str, str] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in seen:
            raise ConfigError(f"line {lineno}: key {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        values[key] = val
    known = {"cases", "primes", "checks", "output_path"}
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    cases = MAIN_CASES
    if "cases" in values:
        names = []
        for item in values["cases"].split(","):
            item = item.strip()
            if item == "all":
                names.extend(ALL_CASES)
                continue
            cid = CASE_ALIASES.get(item, item)
            if cid not in ALL_CASES:
                raise ConfigError(f"unknown case {item!r}")
            names.append(cid)
        cases = tuple(dict.fromkeys(names))
    primes = (2, 3)
    if "primes" in values:
        out = []
        for item in values["primes"].split(","):
            try:
                out.append(int(SmallPrime(int(item.strip()))))
            except ValueError as exc:
                raise ConfigError(f"invalid prime {item.strip()!r}: {exc}") from exc
        primes = tuple(dict.fromkeys(out))
    checks = ALL_CHECKS
    if "checks" in values:
        out = []
        for item in values["checks"].split(","):
            item = item.strip()
            if item == "all":
                out.extend(ALL_CHECKS)
                continue
            if item not in ALL_CHECKS:
                raise ConfigError(f"unknown check {item!r}")
            out.append(item)
        checks = tuple(dict.fromkeys(out))
        if not checks:
            raise ConfigError("checks must be nonempty")
    return RunConfig(cases, primes, checks, values.get("output_path"))


# ---------------------------------------------------------------------------
# individual checks


def check_count(config: RunConfig) -> list:
    records = []
    for case in config.cases:
        spec = build_case(case)
        moved = pinned_coordinate_change(spec)
        for p in config.primes:
            direct, transformed = two_path_count_check(spec, p, moved)
            records.append(_rec(
                "count", case, p, transformed, direct,
                "point count agrees along two predicate paths"))
            if case in ("grass_2_5", "grass_2_6"):
                n = 5 if case == "grass_2_5" else 6
                records.append(_rec(
                    "count", case, p, gaussian_binomial_2(n, p), direct,
                    "Plucker scan matches the Gaussian binomial"))
                records.append(_rec(
                    "count", case, p, count_two_subspaces(n, p), direct,
                    "Plucker scan matches direct 2-subspace enumeration"))
            if case == "B6":
                records.append(_rec(
                    "count", case, p, len(base_points("g4", p)), direct,
                    "Segre model count matches incident pair enumeration"))
        for plane, pspec in spec.planes.items():
            if pspec.contained:
                records.append(_rec(
                    "count", case, None, True,
                    plane_containment_check(spec, plane),
                    f"declared plane {plane} lies on the variety (symbolic)"))
    return records


def check_dimension(config: RunConfig) -> list:
    records = []
    for case in config.cases:
        spec = build_case(case)
        est = estimate_dimension(spec, config.primes)
        records.append(_rec(
            "dimension", case, None,
            {"dim": spec.expected_dim, "consistent": True},
            {"dim": est.estimated_dim, "consistent": est.consistent,
             "counts": dict(est.counts)},
            "point-count growth brackets the stated dimension",
            ok=(est.estimated_dim == spec.expected_dim and est.consistent)))
    return records


def check_singular(config: RunConfig) -> list:
    records = []
    for case in config.cases:
        if case not in MAIN_CASES:
            continue
        spec = build_case(case)
        for p in config.primes:
            report = singular_scan(spec, p)
            if report.difference is not None:
                differ = len(report.difference)
                observed = {"sets_equal": differ == 0,
                            "symmetric_difference": differ,
                            "singular_points": len(report.singular)}
                if differ:
                    observed["first_differences"] = report.difference[:3].tolist()
                records.append(_rec(
                    "singular-locus", case, p,
                    {"sets_equal": True, "symmetric_difference": 0}, observed,
                    "Jacobian singular set equals the rank-locus description",
                    ok=differ == 0))
            elif case == "g8_sigma_bar":
                sing = set(map(tuple, report.singular.tolist()))
                size = len(report.singular)
                veronese, _ = projected_veronese_points(p)
                embedded = {tuple(v) + (0,) * 7 for v in veronese}
                records.append(_rec(
                    "singular-locus", case, p,
                    {"equals_veronese": True, "size": p * p + p + 1},
                    {"equals_veronese": sing == embedded, "size": size},
                    "the singular set is the projected Veronese surface in "
                    "the vertex plane",
                    ok=(sing == embedded and size == p * p + p + 1)))
            else:  # g6c: containment of the singular set in Pibar
                holds = bool(_on_zero_block(
                    spec, spec.planes["Pibar"].vanishing_vars,
                    report.singular).all())
                records.append(CheckRecord(
                    "singular-locus", case, p,
                    {"contained_in_plane": True},
                    {"contained_in_plane": holds,
                     "singular_points": len(report.singular),
                     "plane": "Pibar"},
                    "info" if holds else "fail",
                    "no rank description is declared; singular set containment "
                    "in the distinguished plane is reported without verdict"))
    return records


def check_fibers(config: RunConfig) -> list:
    """Fiber dichotomies. Each sub-check runs at its natural prime set
    (exhaustive enumerations pinned by the acceptance criteria) rather than
    the configured scan primes."""
    records = []
    cases = set(config.cases)
    if "g5_sigma_bar" in cases:
        counter, ok = g5_plane_fiber_dichotomy(2)
        records.append(_rec(
            "fibers", "g5_sigma_bar", 2, True, ok,
            "fiber count over the plane is #P^(3 - rank) for the 3x4 matrix"))
        records.append(_rec(
            "fibers", "g5_sigma_bar", 2,
            {(3, 1), (2, 3), (1, 7)}, set(counter),
            "observed (rank, fiber-count) classes"))
    if "g8_sigma_bar" in cases:
        for p in (2, 3):
            counter, jump = g8_plane_fiber_profile(p)
            veronese, all_rank4 = projected_veronese_points(p)
            records.append(_rec(
                "fibers", "g8_sigma_bar", p, {1, p + 1}, set(counter),
                "fiber counts over the vertex plane form the stated dichotomy"))
            records.append(_rec(
                "fibers", "g8_sigma_bar", p,
                {"size": p * p + p + 1, "matches_oracle": True, "net_rank4": True},
                {"size": len(jump), "matches_oracle": jump == set(veronese),
                 "net_rank4": all_rank4},
                "jumping locus is the projected Veronese surface (kernel-map oracle)"))
    if "g4_sigma_bar" in cases:
        profile, mismatches = g4_intersection_plane_fiber_check(2)
        records.append(_rec(
            "fibers", "g4_sigma_bar", 2, 0, len(mismatches),
            "fiber over the plane intersection matches the hyperplane-section "
            "count of the base surface"))
    if "g6q_sigma_bar" in cases:
        t = PointAffineRep((0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0))
        oracle = g6q_vertex_fiber_oracle(t, 2)
        rep = fiber_over("g6q", t, 2)
        records.append(_rec(
            "fibers", "g6q_sigma_bar", 2,
            {"count": oracle, "shape": "surface"},
            {"count": rep.fiber_count, "shape": rep.classified_shape},
            "vertex-plane fiber is the quadric-surface section of the base"))
    for case in sorted(cases & set(MAIN_CASES)):
        short = CASE_SHORT[case]
        if short not in FIBER_CASES:
            continue
        checked, violations = fiber_birationality_check(short, 2)
        records.append(_rec(
            "fibers", case, 2, {"violations": 0},
            {"violations": violations, "checked": checked},
            "the resolution is one-to-one away from the distinguished loci",
            ok=(violations == 0)))
    return records


def check_degrees(config: RunConfig) -> list:
    records = []
    table = (
        ("g4_sigma_bar", ci_degree((2, 3)), "quadric-cubic intersection degree"),
        ("g5_sigma_bar", ci_degree((2, 2, 2)), "three-quadrics intersection degree"),
        ("g6q_sigma_bar", 2 * grassmann_degree(5),
         "quadric section of the del Pezzo 4-fold"),
        ("g8_sigma_bar", grassmann_degree(6), "Plucker degree of the 2-plane "
                                              "Grassmannian of 6-space"),
    )
    for case, degree, anchor in table:
        genus = build_case(case).metadata.genus
        records.append(_rec("degrees", case, None, 2 * genus - 2, degree,
                            anchor + " equals 2g - 2"))
    for case in ("g4_sigma_bar", "g5_sigma_bar"):
        spec = build_case(case)
        degrees = tuple(g.total_degree() for g in spec.generators)
        records.append(_rec(
            "degrees", case, None, hilbert_ci_degree(degrees, spec.ambient_dim),
            ci_degree(degrees), "product degree agrees with the Hilbert-series oracle"))
    records.append(_rec(
        "degrees", "grass_2_5", None, 2, ci_degree((2,)),
        "a single quadric has degree 2"))
    return records


def check_ledger(config: RunConfig) -> list:
    records = []
    for rec in run_ledger():
        records.append(_rec("ledger", rec.lattice, None, True, rec.verdict.ok,
                            rec.anchor or rec.identity))
    for full in MAIN_CASES:
        case, spec = CASE_SHORT[full], build_case(full)
        consts = case_table_check(case)
        # X, cut by dim - 3 hyperplanes, has -K_X = O(1): the index is dim - 2
        records.append(_rec(
            "ledger", case, None,
            {"dim": spec.expected_dim, "index": spec.expected_dim - 2,
             "half_points": spec.metadata.num_half_points_N},
            {"dim": consts.dim_Sigma, "index": consts.fano_index_r,
             "half_points": consts.half_point_count},
            "model dimension, index and half-point count"))
        for fact in normal_bundle_ledger(case):
            records.append(_rec(
                "ledger", case, None, -2, fact.normal_degree,
                f"normal bundle degree of the {fact.label} is -2"))
    for fact in primitivity_checks():
        records.append(_rec(
            "ledger", fact.case_id, None, True, fact.indivisible,
            "the half polarization pairs to -1 with a flopping curve, "
            "so the primitive class admits no divisor"))
    return records


def check_sections(config: RunConfig) -> list:
    records = []
    for case in config.cases:
        if case not in MAIN_CASES:
            continue
        spec = build_case(case)
        found = _seeded_section(spec, spec.expected_dim - 3,
                                DEFAULT_SECTION_SEEDS[case], (3,), 20,
                                lambda reports: reports[0].estimated_dim == 3)
        if found is None:
            raise RuntimeError(f"no nondegenerate section found for {case}")
        seed, draws, (rep,) = found
        records.append(_rec(
            "sections", case, 3,
            {"dim": 3},
            {"dim": rep.estimated_dim, "count": rep.count,
             "seed": seed, "draws": draws},
            "a seeded random 3-fold section has dimension 3 at p = 3",
            ok=(rep.estimated_dim == 3)))
    if "g8_sigma_bar" in config.cases:
        records.extend(_g8_plane_section_records())
    return records


def _seeded_section(spec, codim, base_seed, primes, tries, accept, plane=None):
    """Seeded random sections of spec, through plane when one is given,
    re-seeded from base_seed upward until accept(the section's reports)
    holds: (seed, draws over all seeds, reports), or None after tries seeds."""
    total_draws = 0
    for seed in range(base_seed, base_seed + tries):
        section, draws = random_section(spec, codim, seed, primes,
                                        contains_planes=(plane,) if plane else ())
        total_draws += draws
        reports = section_report(cut(spec, section), primes, plane=plane)
        if accept(reports):
            return seed, total_draws, reports
    return None


def _g8_plane_section_records():
    found = _seeded_section(
        build_case("g8_sigma_bar"), 2, DEFAULT_SECTION_SEEDS["g8_plane"],
        (2, 3), 50,
        lambda reports: all(r.estimated_dim == 3 and r.singular_off_plane == 0
                            and r.plane_section_count == r.prime ** 2 + r.prime + 1
                            for r in reports),
        plane="Pi")
    if found is None:
        return [CheckRecord("sections", "g8_sigma_bar", None,
                            {"singular_off_plane": 0}, {"found": False}, "fail",
                            "no plane-preserving section seed validated")]
    seed, draws, reports = found
    return [_rec("sections", "g8_sigma_bar", r.prime,
                 {"dim": 3, "plane_points": r.prime ** 2 + r.prime + 1,
                  "singular_off_plane": 0},
                 {"dim": r.estimated_dim, "plane_points": r.plane_section_count,
                  "singular_off_plane": r.singular_off_plane,
                  "seed": seed, "draws": draws},
                 "a plane-preserving section is smooth at rational points "
                 "off the plane", ok=True)
            for r in reports]


_CHECK_FUNCS = {
    "count": check_count,
    "dimension": check_dimension,
    "singular-locus": check_singular,
    "fibers": check_fibers,
    "degrees": check_degrees,
    "ledger": check_ledger,
    "sections": check_sections,
}


# ---------------------------------------------------------------------------
# orchestration


def run(config: RunConfig) -> dict:
    """Execute the configured checks in deterministic order. The checks
    share one scan per (generators, prime) through the point-set memo, which
    is emptied when the run ends, as are the resolution base points. An
    over-budget scan ends the run."""
    records: list[CheckRecord] = []
    try:
        for name in config.checks:
            t0 = time.monotonic()
            try:
                records.extend(_CHECK_FUNCS[name](config))
            except BudgetExceeded:
                raise
            except Exception as exc:  # a failed check must not abort the others
                records.append(CheckRecord(name, "*", None, "completed",
                                           f"{type(exc).__name__}: {exc}",
                                           "fail", "check aborted"))
            print(f"[keyvariety] check {name}: {time.monotonic() - t0:.1f}s",
                  file=sys.stderr)
    finally:
        clear_point_sets()
        clear_base_points()
    report = {
        "tool_version": __version__,
        "config": {
            "cases": list(config.cases),
            "primes": list(config.primes),
            "checks": list(config.checks),
            # no longer options; kept at their old defaults so that the
            # report bytes stay as they were until the report changes
            "threads": 0,
            "sample_cap": 1024,
            "output_path": config.output_path,
        },
        "records": [r.to_json() for r in records],
    }
    return report


def emit_report(report: dict, path: str) -> None:
    """Canonical JSON: sorted keys, fixed separators, trailing newline."""
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _check_report_path(path: str) -> None:
    """Raise OSError when a report could not be written to path: it names a
    directory, or its directory is missing or not writable. Creates no
    file, so that a run can fail before its first check."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise OSError(f"report path {path} is a directory")
    if not os.path.isdir(folder):
        raise OSError(f"report directory {folder} does not exist")
    if not os.access(folder, os.W_OK):
        raise OSError(f"report directory {folder} is not writable")


def exit_code(report: dict) -> int:
    return 0 if all(r["verdict"] in ("pass", "info")
                    for r in report["records"]) else 1


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="keyvariety",
        description="finite-field verification of the extended mid point models")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run configured checks")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--threads", type=int, default=None,
                       help="accepted for compatibility and ignored: every "
                            "scan runs on one worker")
    p_run.add_argument("--out", default=None)

    p_count = sub.add_parser("count", help="count rational points of a case")
    p_count.add_argument("--case", required=True)
    p_count.add_argument("--prime", type=int, required=True)

    p_fiber = sub.add_parser("fiber", help="fiber of the resolution over a point")
    p_fiber.add_argument("--case", required=True)
    p_fiber.add_argument("--prime", type=int, required=True)
    p_fiber.add_argument("--point", required=True,
                         help="colon-separated coordinates in catalog order")

    p_ledger = sub.add_parser("ledger", help="verify the divisor identity ledger")
    p_ledger.add_argument("--case", default=None)

    p_section = sub.add_parser("section", help="cut a case by linear forms")
    p_section.add_argument("--case", required=True)
    p_section.add_argument("--forms", required=True, help="file, one form per line")
    p_section.add_argument("--primes", default="2,3")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.command == "run":
            config = parse_config(args.config)
            out = args.out or config.output_path
            if out:
                _check_report_path(out)
            report = run(config)
            if out:
                emit_report(report, out)
            else:
                print(json.dumps(report, sort_keys=True, indent=2))
            code = exit_code(report)
            fails = sum(1 for r in report["records"] if r["verdict"] == "fail")
            print(f"[keyvariety] {len(report['records'])} records, "
                  f"{fails} failures", file=sys.stderr)
            return code
        if args.command == "count":
            case = CASE_ALIASES.get(args.case, args.case)
            spec = build_case(case)
            from .invariants import count_points
            n = count_points(spec, SmallPrime(args.prime))
            print(json.dumps({"case": case, "prime": args.prime, "count": n}))
            return 0
        if args.command == "fiber":
            short = CASE_SHORT.get(args.case, args.case)
            pt = PointAffineRep.parse(args.point)
            rep = fiber_over(short, pt, SmallPrime(args.prime))
            print(json.dumps({
                "case": CASE_ALIASES.get(args.case, args.case), "prime": args.prime,
                "point": pt.serialize(), "fiber_count": rep.fiber_count,
                "shape": rep.classified_shape,
                "fiber_points": [_jsonable(s) for s in rep.fiber_points],
            }, sort_keys=True))
            return 0
        if args.command == "ledger":
            ok = True
            for rec in run_ledger(args.case):
                status = "pass" if rec.verdict.ok else "fail"
                ok &= rec.verdict.ok
                print(f"{status}  {rec.lattice}: {rec.identity}")
            return 0 if ok else 1
        if args.command == "section":
            case = CASE_ALIASES.get(args.case, args.case)
            spec = build_case(case)
            with open(args.forms, "r", encoding="utf-8") as fh:
                forms = parse_section_file(fh.read(), spec.vars)
            if not forms:
                raise ValueError("the forms file holds no linear form")
            primes = tuple(dict.fromkeys(int(SmallPrime(int(x)))
                                         for x in args.primes.split(",")))
            w = cut(spec, SectionSpec(case, forms))
            for p in primes:
                if not _forms_independent_mod_p(forms, p):
                    raise ValueError(f"the section forms are dependent modulo {p}")
            for rep in section_report(w, primes):
                print(json.dumps({
                    "case": rep.case_id, "prime": rep.prime, "count": rep.count,
                    "estimated_dim": rep.estimated_dim,
                    "singular_points": rep.singular_count,
                }, sort_keys=True))
            return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        # str() of a KeyError is the repr of its message
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
