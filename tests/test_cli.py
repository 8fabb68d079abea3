import dataclasses
import json
import re
import time
from collections import Counter

import pytest

from keyvariety import catalog, incidence, invariants, projspace
from keyvariety.cli import (ConfigError, RunConfig, emit_report, exit_code,
                            main, parse_config, run)
from keyvariety.incidence import base_points
from keyvariety.numerology import case_table_check


def _write(tmp_path, text, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_config_minimal_defaults(tmp_path):
    cfg = parse_config(_write(tmp_path, "cases=g5\nchecks=count\n"))
    assert cfg.cases == ("g5_sigma_bar",)
    assert cfg.primes == (2, 3)
    assert cfg.checks == ("count",)


def test_parse_config_rejects_nonprime(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(_write(tmp_path, "primes=4\nchecks=count\n"))


@pytest.mark.parametrize("line", ["threads=4", "sample_cap=13"],
                         ids=["threads", "sample_cap"])
def test_removed_config_key_is_a_config_error(tmp_path, capsys, line):
    """threads and sample_cap are no longer config keys: a config that sets
    one is refused as an unknown key, and the run writes no report."""
    key = line.split("=")[0]
    path = _write(tmp_path, f"cases=g8\nprimes=2\nchecks=degrees\n{line}\n")
    message = f"unknown config keys: [{key!r}]"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(path)
    out = tmp_path / "report.json"
    assert main(["run", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_parse_config_rejects_unknown_key(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(_write(tmp_path, "zzz=1\n"))


def test_repeated_config_key_is_a_config_error(tmp_path, capsys):
    """A key set on two lines is refused with both line numbers, rather than
    the later line silently winning; the run writes no report."""
    path = _write(tmp_path, "cases=g8\n# comment\nprimes=2\ncases = g6c\n")
    message = "line 4: key 'cases' repeats line 1"
    with pytest.raises(ConfigError, match=f"^{message}$"):
        parse_config(path)
    out = tmp_path / "report.json"
    assert main(["run", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_parse_config_rejects_unknown_case_and_check(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(_write(tmp_path, "cases=g99\nchecks=count\n"))
    with pytest.raises(ConfigError):
        parse_config(_write(tmp_path, "cases=g5\nchecks=zap\n"))


def test_parse_config_removes_duplicates(tmp_path):
    text = "cases=Q3_g6q,Q3_g6q\nprimes=2,2\nchecks=count,dimension,count\n"
    cfg = parse_config(_write(tmp_path, text))
    assert cfg.cases == ("Q3_g6q",) and cfg.primes == (2,)
    assert cfg.checks == ("count", "dimension")
    report = run(cfg)
    assert report["config"]["primes"] == [2]
    assert [r["check"] for r in report["records"]] == ["count", "dimension"]


def test_parse_config_full_round_trips_into_report(tmp_path):
    text = ("cases=g8,grass_2_5\nprimes=2,3\nchecks=degrees,ledger\n"
            "output_path=out.json\n")
    cfg = parse_config(_write(tmp_path, text))
    assert cfg.cases == ("g8_sigma_bar", "grass_2_5")
    assert cfg.output_path == "out.json"
    report = run(cfg)
    assert report["config"]["cases"] == ["g8_sigma_bar", "grass_2_5"]
    assert report["config"]["primes"] == [2, 3]
    # the report keeps the removed keys at their old defaults
    assert report["config"]["threads"] == 0
    assert report["config"]["sample_cap"] == 1024


def test_missing_config_is_config_error(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.txt")]) == 2


def test_run_all_pass_and_exit_codes(tmp_path):
    cfg = RunConfig(cases=("g8_sigma_bar",), primes=(2,),
                    checks=("degrees", "ledger"))
    report = run(cfg)
    assert report["records"]
    assert all(r["verdict"] in ("pass", "info") for r in report["records"])
    assert exit_code(report) == 0
    report["records"][0]["verdict"] = "fail"
    assert exit_code(report) == 1


def test_emit_report_deterministic(tmp_path):
    cfg = RunConfig(cases=("g8_sigma_bar",), primes=(2,),
                    checks=("count", "degrees"))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(run(cfg), str(p1))
    emit_report(run(cfg), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_reports_identical_across_thread_counts(tmp_path):
    # --threads is accepted and ignored
    cfg = _write(tmp_path, "cases=g8,g6c\nprimes=2\nchecks=count,dimension,degrees\n")
    paths = [tmp_path / "t1.json", tmp_path / "t8.json"]
    for threads, path in zip(("1", "8"), paths):
        assert main(["run", "--threads", threads, "--config", cfg,
                     "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_report_records_have_fixed_fields(tmp_path):
    cfg = RunConfig(cases=("grass_2_5",), primes=(2,), checks=("count",))
    report = run(cfg)
    for rec in report["records"]:
        assert set(rec) == {"check", "case", "prime", "expected", "observed",
                            "verdict", "anchor", "elapsed_ms"}
        assert rec["elapsed_ms"] == 0


def test_cli_main_run_writes_report(tmp_path):
    cfg = _write(tmp_path, "cases=g8\nchecks=degrees,ledger\n")
    out = tmp_path / "rep.json"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["tool_version"]
    assert all(r["verdict"] in ("pass", "info") for r in rep["records"])


def test_cli_count_command(capsys):
    assert main(["count", "--case", "grass_2_5", "--prime", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == 155


def test_cli_count_rejects_bad_prime(capsys):
    assert main(["count", "--case", "grass_2_5", "--prime", "6"]) == 2


def test_cli_count_over_budget_exits_2(capsys):
    # P^15(F_5) is far over the point budget; it fails before any scan
    assert main(["count", "--case", "g5", "--prime", "5"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_cli_count_of_mixed_ring_system_exits_2(capsys, monkeypatch):
    import dataclasses

    from keyvariety import cli
    from keyvariety.algebra import parse_poly
    from keyvariety.catalog import build_case

    spec = build_case("B5")
    mixed = spec.generators + (parse_poly("a - b", ("a", "b")),)
    monkeypatch.setattr(cli, "build_case", lambda case: dataclasses.replace(
        spec, generators=mixed))
    assert main(["count", "--case", "B5", "--prime", "3"]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == "" and len(err) == 1
    assert err[0] == "error: system arity does not match the scan plan"
    assert projspace._POINT_SETS == {}


def test_cli_fiber_command(capsys):
    point = "0:0:0:0:1:0:0:0:0:1:0:0:0:0:0:0"
    assert main(["fiber", "--case", "g5", "--prime", "2",
                 "--point", point]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["fiber_count"] == 3 and out["shape"] == "P1"


def test_cli_fiber_prints_the_resolved_case_id(capsys):
    point = "0:0:0:0:1:0:0:0:0:1:0:0:0:0:0:0"
    lines = []
    for case in ("g5", "g5_sigma_bar"):
        assert main(["fiber", "--case", case, "--prime", "2",
                     "--point", point]) == 0
        lines.append(capsys.readouterr().out)
    assert lines[0] == lines[1]
    assert json.loads(lines[0])["case"] == "g5_sigma_bar"


def test_cli_fiber_names_the_g6q_vertex_fiber_a_surface(capsys):
    """Over the point of g6q's dual vertex plane {z = x = 0} that the fibers
    check probes, the fiber is the quadric-surface section of the base: its
    7 points at p = 2 equal the oracle's count, so it is a "surface", not
    the "P2" its count alone would name. A point off that plane keeps the
    name of its count."""
    assert main(["fiber", "--case", "g6q", "--prime", "2",
                 "--point", "0:0:0:0:0:0:0:0:0:1:0:0:0:0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["fiber_count"], out["shape"]) == (7, "surface")
    assert main(["fiber", "--case", "g6q", "--prime", "2",
                 "--point", "0:0:0:0:1:0:0:0:0:0:0:0:0:0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["shape"] != "surface"


@pytest.mark.parametrize("case,prime,point", [
    ("g5", 65537, "1:0:0:0:0:1:0:0:0:0:1:0:0:0:0:1"),
    ("g4", 101, "0:0:0:0:0:0:1:0:0:0:0:0:0:0"),
])
def test_cli_fiber_base_over_budget_exits_2(capsys, case, prime, point):
    t0 = time.perf_counter()
    assert main(["fiber", "--case", case, "--prime", str(prime),
                 "--point", point]) == 2
    assert time.perf_counter() - t0 < 5
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == ""
    assert len(err) == 1
    assert err[0].startswith(f"error: the {case} fiber base enumerates ")


def test_cli_fiber_rejects_non_residue(capsys):
    point = "1:5:" + ":".join(["0"] * 14)
    assert main(["fiber", "--case", "g5", "--prime", "3", "--point", point]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0] == "error: coordinates must be residues in [0, 3)"


def test_cli_unsupported_case_messages(capsys):
    point = "1:" + ":".join(["0"] * 12)
    assert main(["fiber", "--case", "g6c", "--prime", "2", "--point", point]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: unsupported fiber case 'g6c': the fiber "
                             "cases are g8, g4, g6q, g5")
    assert main(["count", "--case", "zzz", "--prime", "2"]) == 2
    assert capsys.readouterr().err == "error: unknown case 'zzz'\n"


def test_cli_ledger_command(capsys):
    assert main(["ledger"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 19
    assert all(line.startswith("pass") for line in lines)


def test_cli_ledger_case_accepts_full_id(capsys):
    assert main(["ledger", "--case", "g4"]) == 0
    short = capsys.readouterr().out.splitlines()
    assert len(short) == 5 and all(line.startswith("pass  g4.") for line in short)
    assert main(["ledger", "--case", "g4_sigma_bar"]) == 0
    assert capsys.readouterr().out.splitlines() == short


@pytest.mark.parametrize("case", ["bogus", "grass_2_5"])
def test_cli_ledger_case_without_identities_exits_2(capsys, case):
    assert main(["ledger", "--case", case]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no ledger identities for case {case!r}\n"


def test_cli_section_command(tmp_path, capsys):
    forms = tmp_path / "forms.txt"
    forms.write_text("# two cuts\nx2 - p24\nx3 - p35\n")
    assert main(["section", "--case", "g8", "--forms", str(forms),
                 "--primes", "2,3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["estimated_dim"] == 3


def test_cli_section_removes_duplicate_primes(tmp_path, capsys):
    forms = tmp_path / "forms.txt"
    forms.write_text("x5 - x6\n")
    assert main(["section", "--case", "g8", "--forms", str(forms),
                 "--primes", "2,2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["prime"] == 2


@pytest.mark.parametrize("text,primes,bad", [("2*x2\n", "2", 2),
                                              ("x2 + x3\nx2 - 2*x3\n", "2,3", 3)],
                         ids=["zero-mod-2", "dependent-mod-3"])
def test_cli_section_rejects_forms_dependent_modulo_a_prime(tmp_path, capsys,
                                                            text, primes, bad):
    """Forms independent over Q whose rank modulo a requested prime is below
    their number (2*x2 is zero mod 2; x2 + x3 and x2 - 2*x3 agree mod 3) end
    the command with exit 2 and one stderr line naming that prime, before any
    prime is scanned: the independent p = 2 of the second case prints no
    line either."""
    forms = tmp_path / "forms.txt"
    forms.write_text(text)
    assert main(["section", "--case", "g8", "--forms", str(forms),
                 "--primes", primes]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the section forms are dependent modulo {bad}\n"


@pytest.mark.parametrize("text", ["", "# only a comment\n", "\n  \n# x2 - p24\n"],
                         ids=["empty", "comment", "blank-and-comment"])
def test_cli_section_without_forms_exits_2_before_any_scan(tmp_path, capsys,
                                                           monkeypatch, text):
    """A forms file that holds no linear form (empty, or only comments and
    blank lines) ends the command with exit 2 and one stderr line before any
    scan, instead of reporting the uncut variety."""
    chunks = []
    real = projspace._grid_chunk
    monkeypatch.setattr(projspace, "_grid_chunk",
                        lambda *a: chunks.append(a[1:]) or real(*a))
    forms = tmp_path / "forms.txt"
    forms.write_text(text)
    assert main(["section", "--case", "g8", "--forms", str(forms),
                 "--primes", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the forms file holds no linear form\n"
    assert chunks == []


@pytest.mark.parametrize("where", ["missing/r.json", "."])
def test_run_with_unwritable_report_exits_2_before_any_check(where, tmp_path,
                                                             capsys, monkeypatch):
    """A report in a missing directory, or a report path that is a
    directory, ends the run with exit 2 and one stderr line before the
    first check, and no file is created."""
    chunks = []
    real = projspace._grid_chunk
    monkeypatch.setattr(projspace, "_grid_chunk",
                        lambda *a: chunks.append(a[1:]) or real(*a))
    cfg = _write(tmp_path, "cases=Q3_g6q\nprimes=2\nchecks=count\n")
    out = tmp_path / where
    before = sorted(tmp_path.rglob("*"))
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert chunks == []
    assert sorted(tmp_path.rglob("*")) == before


def test_run_over_budget_exits_2_before_any_scan(tmp_path, capsys, monkeypatch):
    chunks = []
    real = projspace._grid_chunk
    monkeypatch.setattr(projspace, "_grid_chunk",
                        lambda *a: chunks.append(a[1:]) or real(*a))
    cfg = _write(tmp_path, "cases=g5\nprimes=5\nchecks=count\n")
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert chunks == []
    assert projspace._POINT_SETS == {}
    # the patched kernel does record the chunks of a scan within budget
    cfg = _write(tmp_path, "cases=Q3_g6q\nprimes=2\nchecks=count\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0
    assert chunks


def test_run_empties_base_point_cache():
    base_points("g4", 2)
    run(RunConfig(cases=("g8_sigma_bar",), primes=(2,), checks=("fibers",)))
    assert incidence._BASE_POINTS == {}


def _count_scans(monkeypatch) -> Counter:
    """Patch scan_system where the memo and the transformed count path call
    it; count calls per (generators, prime)."""
    scans: Counter = Counter()
    for module in (projspace, invariants):
        real = module.scan_system

        def counted(plan, polys, *args, real=real, **kwargs):
            scans[(tuple(polys), int(plan.prime))] += 1
            return real(plan, polys, *args, **kwargs)
        monkeypatch.setattr(module, "scan_system", counted)
    return scans


def test_run_scans_each_point_set_once(monkeypatch):
    from keyvariety.catalog import build_case, pinned_coordinate_change

    scans = _count_scans(monkeypatch)
    cases = ("grass_2_5", "B5", "g8_sigma_bar")
    run(RunConfig(cases=cases, primes=(2, 3),
                  checks=("count", "dimension", "fibers")))
    expected = Counter()
    for case in cases:
        spec = build_case(case)
        for p in (2, 3):
            expected[(spec.generators, p)] = 1
            expected[(tuple(pinned_coordinate_change(spec)), p)] = 1
    # the fibers check may add base-variety scans, each at most once
    assert all(n == 1 for n in scans.values())
    assert scans & expected == expected


def test_count_rewrites_each_case_once(monkeypatch):
    from keyvariety import cli

    calls = []
    for module in (cli, invariants):
        real = module.pinned_coordinate_change
        monkeypatch.setattr(module, "pinned_coordinate_change",
                            lambda spec, real=real:
                            calls.append(spec.case_id) or real(spec))
    run(RunConfig(cases=("grass_2_5", "B5"), primes=(2, 3), checks=("count",)))
    assert calls == ["grass_2_5", "B5"]


def test_repeated_runs_identical_and_memo_emptied():
    config = RunConfig(cases=("grass_2_5", "B6"), primes=(2, 3),
                       checks=("count", "dimension"))
    first = run(config)
    assert projspace._POINT_SETS == {}
    second = run(config)
    assert projspace._POINT_SETS == {}
    assert (json.dumps(first, sort_keys=True, indent=2)
            == json.dumps(second, sort_keys=True, indent=2))


def test_failing_singular_record_carries_first_differences(monkeypatch):
    # with no rank-locus branch declared, every singular point differs
    import dataclasses

    from keyvariety import cli
    from keyvariety.algebra import PointAffineRep, jacobian_rank
    from keyvariety.catalog import RankLocusSpec, build_case

    monkeypatch.setattr(cli, "build_case", lambda case: dataclasses.replace(
        build_case(case), rank_locus=RankLocusSpec(case, "no branches", ())))
    report = run(RunConfig(cases=("g6q_sigma_bar",), primes=(2,),
                           checks=("singular-locus",)))
    [record] = report["records"]
    assert record["verdict"] == "fail"
    observed = record["observed"]
    assert observed["sets_equal"] is False
    assert observed["symmetric_difference"] == observed["singular_points"] == 151
    rows = observed["first_differences"]
    assert len(rows) == 3 and len(set(map(tuple, rows))) == 3
    spec = build_case("g6q_sigma_bar")
    codim = spec.ambient_dim - spec.expected_dim
    for row in rows:
        assert len(row) == len(spec.vars)
        assert jacobian_rank(list(spec.generators), PointAffineRep(tuple(row)), 2) < codim


def test_passing_singular_record_has_no_differences():
    report = run(RunConfig(cases=("g6q_sigma_bar",), primes=(2,),
                           checks=("singular-locus",)))
    [record] = report["records"]
    assert record["verdict"] == "pass"
    assert record["observed"] == {"sets_equal": True, "symmetric_difference": 0,
                                  "singular_points": 151}


def test_singular_records_of_g6q_g6c_and_g8_p2():
    """The three kinds of singular-locus claim at p = 2: a rank-locus
    equality (g6q), the containment of the singular set in Pibar, reported
    without verdict (g6c), and the projected Veronese surface (g8)."""
    report = run(RunConfig(cases=("g6q_sigma_bar", "g6c_sigma_bar",
                                  "g8_sigma_bar"),
                           primes=(2,), checks=("singular-locus",)))
    got = [(r["case"], r["verdict"], r["expected"], r["observed"])
           for r in report["records"]]
    assert got == [
        ("g6q_sigma_bar", "pass", {"sets_equal": True, "symmetric_difference": 0},
         {"sets_equal": True, "symmetric_difference": 0, "singular_points": 151}),
        ("g6c_sigma_bar", "info", {"contained_in_plane": True},
         {"contained_in_plane": True, "plane": "Pibar", "singular_points": 87}),
        ("g8_sigma_bar", "pass", {"equals_veronese": True, "size": 7},
         {"equals_veronese": True, "size": 7}),
    ]


@pytest.fixture
def declare(monkeypatch):
    """declare(case, **fields) replaces fields of a main case's CaseRecord
    in the catalog for one test; the specs are rebuilt from the declaration
    after each change and after the test."""
    def declare(case, **fields):
        record = dataclasses.replace(catalog._TABLE[case], **fields)
        monkeypatch.setitem(catalog._TABLE, case, record)
        catalog._build_case.cache_clear()
    yield declare
    catalog._build_case.cache_clear()


@pytest.mark.parametrize("case,fields,failing", [
    ("g6q_sigma_bar", {"genus": 7}, ("degrees", "g6q_sigma_bar")),
    ("g8_sigma_bar", {"genus": 9}, ("degrees", "g8_sigma_bar")),
    ("g4_sigma_bar", {"num_half_points_N": 1}, ("ledger", "g4")),
    ("g5_sigma_bar", {"num_half_points_N": 2}, ("ledger", "g5")),
], ids=["genus-g6q", "genus-g8", "half-points-g4", "half-points-g5"])
def test_a_wrong_declaration_fails_exactly_its_record(declare, case, fields,
                                                      failing):
    """The catalog is the one declaration of genus and half-point count: a
    wrong value there fails exactly the degrees or ledger record that reads
    it, leaves every other record as it was, raises nothing, and changes no
    observed value (case_table_check returns the same constants)."""
    config = RunConfig(cases=("g8_sigma_bar",), primes=(2,),
                       checks=("degrees", "ledger"))
    before = run(config)["records"]
    consts = case_table_check(catalog.CASE_SHORT[case])
    declare(case, **fields)
    after = run(config)["records"]
    assert case_table_check(catalog.CASE_SHORT[case]) == consts
    assert len(after) == len(before)
    changed = [(b, a) for b, a in zip(before, after) if a != b]
    assert [(a["check"], a["case"], a["verdict"]) for _, a in changed] == [
        (*failing, "fail")]
    [(b, a)] = changed
    assert b["verdict"] == "pass" and a["observed"] == b["observed"]
    assert all(r["verdict"] == "pass" for r in before)
