import concurrent.futures
import csv
import io
import json
import os
import re
import resource
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from spingauss.cli import KEYS, main, parse_grid, run_convergence, run_discriminate
from spingauss.errors import ConfigError, DomainError
from spingauss.irreps import LocalParam
from spingauss.measurements import McSpec, heterodyne_risk_reference
from spingauss.qubit_model import ModelParams
from spingauss.reference import discrimination_limit
from spingauss.reports import read_report


def run_cli(argv, capsys=None):
    code = main(argv)
    return code


def read_csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        body = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("".join(body))))


def test_parse_grid_forms():
    assert parse_grid("0") == parse_grid("0:0:1")
    pts = parse_grid("-1:1:3")
    assert len(pts) == 9
    assert {(-1.0, -1.0), (0.0, 0.0), (1.0, 1.0)} <= {(p.ux, p.uy) for p in pts}
    two = parse_grid("0:1:2,0:0:1")
    assert [(p.ux, p.uy) for p in two] == [(0.0, 0.0), (1.0, 0.0)]
    with pytest.raises(ConfigError):
        parse_grid("1:2")


def test_convergence_minimal_report(tmp_path):
    out = tmp_path / "conv.csv"
    code = run_cli(
        ["convergence", "--n", "16", "--mu", "0.75", "--grid", "0", "--out", str(out)]
    )
    assert code == 0
    rows = read_csv_rows(out)
    sups = [r for r in rows if r["statistic"] == "forward_sup"]
    assert len(sups) == 1
    assert float(sups[0]["value"]) < 0.1
    assert {r["statistic"] for r in rows} == {
        "forward_distance", "block_distance_max", "reverse_distance",
        "forward_sup", "block_sup", "reverse_sup",
    }


def test_grid_flag_accepts_leading_minus(tmp_path):
    # '-1:1:3' must not be mistaken for an option string
    out = tmp_path / "neg.csv"
    assert run_cli(["convergence", "--n", "8", "--mu", "0.75", "--grid", "-1:1:2", "--out", str(out)]) == 0
    rows = read_csv_rows(out)
    assert {r["u_x"] for r in rows if r["statistic"] == "forward_distance"} == {"-1", "1"}


def test_convergence_forward_sup_decreasing(tmp_path):
    out = tmp_path / "conv.csv"
    code = run_cli(
        ["convergence", "--n", "8,16,32", "--mu", "0.75", "--grid", "0:1:2", "--out", str(out)]
    )
    assert code == 0
    rows = read_csv_rows(out)
    sups = [float(r["value"]) for r in rows if r["statistic"] == "forward_sup"]
    assert sups[0] > sups[1] > sups[2]


def test_sup_rows_take_the_first_largest_point_and_the_largest_bound(tmp_path):
    # every |u| gives bit-identical rows, so the four corners of the grid tie
    # for each sup; the sup row names the first of them in grid order
    out = tmp_path / "conv.csv"
    assert run_cli(["convergence", "--n", "16,64", "--mu", "0.75", "--grid", "-1:1:3", "--out", str(out)]) == 0
    rows = read_csv_rows(out)
    for n in ("16", "64"):
        at_n = [r for r in rows if r["n"] == n]
        bound = max(float(r["error_bound"]) for r in at_n if not r["statistic"].endswith("_sup"))
        for point_stat, sup_stat in (
            ("forward_distance", "forward_sup"),
            ("block_distance_max", "block_sup"),
            ("reverse_distance", "reverse_sup"),
        ):
            points = [r for r in at_n if r["statistic"] == point_stat]
            (sup,) = [r for r in at_n if r["statistic"] == sup_stat]
            first = max(points, key=lambda r: float(r["value"]))
            assert sum(r["value"] == first["value"] for r in points) == 4
            assert (sup["u_x"], sup["u_y"], sup["value"]) == ("-1", "-1", first["value"])
            assert float(sup["error_bound"]) == bound


@pytest.mark.parametrize("command", ["convergence", "discriminate", "measure-compare"])
def test_parallel_workers_write_the_serial_report(tmp_path, command):
    argv = [command, "--mu", "0.75,0.9", "--n", "16,64", "--grid=-1:1:3"]
    reports = []
    for workers in ("1", "2"):
        out = tmp_path / f"workers{workers}.csv"
        assert run_cli(argv + ["--workers", workers, "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
        assert sum(line.startswith("# workers = ") for line in lines) == 1
        reports.append([line for line in lines if not line.startswith("# workers = ")])
    assert reports[0] == reports[1]


def test_a_grid_run_starts_one_process_pool(tmp_path, monkeypatch):
    # the points of every mu form one task list, so a run starts one pool
    # however many mu values it holds
    started = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    argv = ["convergence", "--mu", "0.75,0.9", "--n", "16", "--grid", "0.5,0", "--workers", "2"]
    assert run_cli(argv + ["--out", str(tmp_path / "conv.csv")]) == 0
    assert len(started) == 1


def test_csv_json_same_numbers(tmp_path):
    csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"
    assert run_cli(["risk", "--mu", "0.75,0.9", "--out", str(csv_path)]) == 0
    assert run_cli(["risk", "--mu", "0.75,0.9", "--format", "json", "--out", str(json_path)]) == 0
    crows = read_csv_rows(csv_path)
    with open(json_path, encoding="utf-8") as fh:
        jrows = json.load(fh)["rows"]
    assert len(crows) == len(jrows)
    for c, j in zip(crows, jrows):
        assert float(c["value"]) == j["value"]
        assert float(c["error_bound"]) == j["error_bound"]
        assert c["statistic"] == j["statistic"]


def test_risk_reference_rows(tmp_path):
    out = tmp_path / "risk.csv"
    assert run_cli(["risk", "--mu", "0.75,1.0", "--out", str(out)]) == 0
    rows = read_csv_rows(out)
    by_stat = {}
    for r in rows:
        by_stat.setdefault(r["statistic"], []).append(float(r["value"]))
    assert by_stat["heterodyne_risk_reference_derived"] == [3.0, 1.0]
    for got, want in zip(by_stat["heterodyne_risk"], (3.0, 1.0)):
        assert abs(got - want) / want < 0.01


def test_risk_next_to_one_half_exits_zero(tmp_path):
    # 86,348 thermal weights: the risk holds no table of that many rows
    out = tmp_path / "risk.csv"
    assert run_cli(["risk", "--mu", "0.5001", "--out", str(out)]) == 0
    (row,) = [r for r in read_csv_rows(out) if r["statistic"] == "heterodyne_risk"]
    want = 0.5001 / (2 * 0.5001 - 1) ** 2
    assert abs(float(row["value"]) - want) <= float(row["error_bound"])


def test_discriminate_report_columns(tmp_path):
    out = tmp_path / "disc.csv"
    assert run_cli(
        ["discriminate", "--mu", "1.0", "--n", "4,16", "--grid", "0.5:0.5:1,0:0:1", "--out", str(out)]
    ) == 0
    rows = read_csv_rows(out)
    limit = [float(r["value"]) for r in rows if r["statistic"] == "limit_risk"]
    assert limit[0] == pytest.approx(0.10246995118967495, abs=1e-12)
    base = [float(r["value"]) for r in rows if r["statistic"] == "position_risk_baseline"]
    assert base[0] == pytest.approx(0.23975006109347674, abs=1e-12)
    finite = [float(r["value"]) for r in rows if r["statistic"] == "helstrom_risk"]
    assert len(finite) == 2


def test_reproducible_reports_bit_exact(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("mu = 0.75\nn = 8,16\ngrid = 0:1:2\nseed = 77\n", encoding="utf-8")
    assert run_cli(["convergence", "--config", str(cfg), "--out", str(a)]) == 0
    assert run_cli(["convergence", "--config", str(cfg), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_mc_risk_seeded_reproducible(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    common = ["risk", "--mu", "0.8", "--samples", "20000", "--seed", "99"]
    assert run_cli(common + ["--out", str(a)]) == 0
    assert run_cli(common + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("muu = 0.9\n", encoding="utf-8")
    code = run_cli(["risk", "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and "muu" in err


@pytest.mark.parametrize("key", ["quad_radial", "quad_angular", "grid_radius"])
def test_removed_grid_keys_rejected(tmp_path, capsys, key):
    # these keys never reached a grid; a config that sets one is an error
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"{key} = 200\n", encoding="utf-8")
    assert run_cli(["measure-compare", "--config", str(cfg), "--n", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and key in err


@pytest.mark.parametrize("command", ["convergence", "discriminate"])
def test_removed_trunc_key_rejected(tmp_path, capsys, command):
    # every core keeps the rows it reaches, so there is no Fock cutoff to set
    cfg = tmp_path / "old.cfg"
    cfg.write_text("trunc = 0\n", encoding="utf-8")
    assert run_cli([command, "--config", str(cfg), "--n", "4", "--grid", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and "unknown config key 'trunc'" in err


def test_bad_mu_exit_code(capsys):
    assert run_cli(["risk", "--mu", "0.4"]) == 2
    assert capsys.readouterr().err.startswith("error: config:")


def test_unwritable_output_is_io_error(capsys):
    code = run_cli(["risk", "--mu", "0.9", "--out", "/nonexistent-dir/x.csv"])
    assert code == 4
    assert capsys.readouterr().err.startswith("error: io:")


def test_measure_compare_rows_run_mu_then_n_then_u(tmp_path):
    out = tmp_path / "mc.csv"
    assert run_cli(["measure-compare", "--mu", "0.75,0.9", "--n", "16,36", "--grid=0:1:2,0.3", "--out", str(out)]) == 0
    rows = read_csv_rows(out)
    assert [(float(r["mu"]), int(r["n"]), float(r["u_x"])) for r in rows[::6]] == [
        (mu, n, ux) for mu in (0.75, 0.9) for n in (16, 36) for ux in (0.0, 1.0)
    ]
    assert [r["statistic"] for r in rows[:6]] == [
        "tv_bound", "tv_grid_term", "covariant_mass", "heterodyne_mass", "out_of_grid_mass", "concentration_deficit",
    ]


def test_measure_compare_smoke(tmp_path):
    out = tmp_path / "mc.csv"
    assert run_cli(
        ["measure-compare", "--mu", "0.75", "--n", "32,64", "--grid", "0.5:0.5:1,0.5:0.5:1", "--out", str(out)]
    ) == 0
    rows = read_csv_rows(out)
    tv = [float(r["value"]) for r in rows if r["statistic"] == "tv_bound"]
    assert len(tv) == 2 and tv[1] < tv[0]
    oog = [float(r["value"]) for r in rows if r["statistic"] == "out_of_grid_mass"]
    assert all(v < 1e-4 for v in oog)


def test_plot_deterministic_and_errors(tmp_path, capsys):
    report = tmp_path / "conv.csv"
    assert run_cli(
        ["convergence", "--n", "8,16,32", "--mu", "0.75", "--grid", "0:1:2", "--out", str(report)]
    ) == 0
    svg1 = tmp_path / "a.svg"
    svg2 = tmp_path / "b.svg"
    assert run_cli(["plot", str(report), "--statistic", "forward_distance", "--out", str(svg1)]) == 0
    assert run_cli(["plot", str(report), "--statistic", "forward_distance", "--out", str(svg2)]) == 0
    data = svg1.read_bytes()
    assert data == svg2.read_bytes()
    assert data.startswith(b"<svg") and b"polyline" in data
    # one polyline per u point of the 2x2 grid
    assert data.count(b"<polyline") == 4
    # empty selection exits nonzero
    empty = tmp_path / "empty.csv"
    assert run_cli(["risk", "--mu", "0.75", "--out", str(empty)]) == 0
    code = run_cli(["plot", str(empty), "--out", str(tmp_path / "no.svg")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: config:")


def test_plot_draws_one_line_per_mu_and_u(tmp_path):
    # each polyline runs along n; two mu at one u must not share a line
    report = tmp_path / "conv.csv"
    assert run_cli(
        ["convergence", "--n", "4,8,16", "--mu", "0.75,0.9", "--grid", "0.3,0.2", "--out", str(report)]
    ) == 0
    svg = tmp_path / "conv.svg"
    assert run_cli(["plot", str(report), "--statistic", "forward_distance", "--out", str(svg)]) == 0
    text = svg.read_text(encoding="utf-8")
    lines = re.findall(r'<polyline points="([^"]*)"', text)
    assert len(lines) == 2
    for points in lines:
        xs = [float(pt.split(",")[0]) for pt in points.split()]
        assert len(xs) == 3 and xs == sorted(set(xs))
    assert "mu=0.75 u=(0.3,0.2)" in text and "mu=0.9 u=(0.3,0.2)" in text


@pytest.mark.parametrize(
    "case",
    [
        "csv-value", "csv-short-row", "json-truncated", "json-no-rows", "json-row-not-object",
        "json-row-missing-key", "json-config-not-object",
    ],
)
def test_plot_malformed_report_is_a_config_error(case, tmp_path, capsys):
    # a bad number, a short row, a cut-off file, a missing key and a value
    # of the wrong type each exit 2 with one config line, not a traceback
    fmt = case.split("-")[0]
    good, bad = tmp_path / f"good.{fmt}", tmp_path / f"bad.{fmt}"
    argv = ["convergence", "--n", "8,16", "--mu", "0.75", "--grid", "0", "--format", fmt]
    assert run_cli(argv + ["--out", str(good)]) == 0
    text = good.read_text(encoding="utf-8")
    if case.startswith("csv"):
        lines = text.splitlines()
        fields = lines[-1].split(",")
        if case == "csv-value":
            fields[5] = "abc"
        else:
            del fields[-1]
        lines[-1] = ",".join(fields)
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif case == "json-truncated":
        bad.write_text(text[: len(text) // 2], encoding="utf-8")
    elif case == "json-no-rows":
        bad.write_text('{"experiment": "convergence", "version": "0"}\n', encoding="utf-8")
    elif case == "json-row-not-object":
        bad.write_text('{"rows": [1, 2]}\n', encoding="utf-8")
    elif case == "json-row-missing-key":
        row = json.loads(text)["rows"][0]
        del row["error_bound"]
        bad.write_text(json.dumps({"rows": [row]}) + "\n", encoding="utf-8")
    else:
        bad.write_text('{"config": ["mu"], "rows": []}\n', encoding="utf-8")
    capsys.readouterr()
    assert run_cli(["plot", str(bad), "--out", str(tmp_path / "no.svg")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: config: malformed report")
    assert not (tmp_path / "no.svg").exists()


def test_report_roundtrip_read(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli(["risk", "--mu", "0.9", "--format", "json", "--out", str(out)]) == 0
    rep = read_report(str(out))
    assert rep.experiment == "risk"
    assert any(r.statistic == "heterodyne_risk" for r in rep.rows)


@pytest.mark.parametrize(
    "argv",
    [
        ["convergence", "--epsilon", "abc"],
        ["convergence", "--epsilon", "0.5"],
        ["discriminate", "--n", "0"],
        ["convergence", "--workers", "abc"],
        ["convergence", "--workers", "-2"],
        ["convergence", "--workers", "0"],
        ["risk", "--samples", "abc"],
        ["risk", "--seed", "abc"],
        ["risk", "--samples", "100", "--seed", "-1"],
        ["risk", "--samples", "-5"],
        ["risk", "--samples", "1"],
        ["convergence", "--n", "4,4", "--grid=0.3,0.2"],
        ["measure-compare", "--n", "16,8,16", "--grid=0.3,0.2"],
        ["discriminate", "--n", "4", "--mu", "0.75,0.75", "--grid=0.3,0.2"],
        ["convergence", "--n", "4", "--mu", "0.75,0.750", "--grid=0.3,0.2"],
        ["risk", "--mu", "0.9,1,0.9"],
        ["convergence", "--n", "4", "--grid=0.3:0.3:2,0.2"],
        ["measure-compare", "--n", "16", "--grid=-1:1:3,0.5:0.5:2"],
    ],
)
def test_malformed_or_out_of_range_scalar_is_config_error(argv, capsys):
    # each value is rejected before any experiment runs, never a traceback,
    # a silent fallback (serial run, quadrature) or a nan bound; a value
    # repeated in a list, or a point repeated in the grid, would repeat
    # every report row it reaches
    assert run_cli(argv) == 2
    assert capsys.readouterr().err.startswith("error: config:")


@pytest.mark.parametrize(
    "argv, build",
    [
        (["convergence", "--mu", "0.4"], lambda: ModelParams(16, 0.4)),
        (["risk", "--mu", "0.75,0.4"], lambda: heterodyne_risk_reference(0.4)),
        (["discriminate", "--n", "0"], lambda: ModelParams(0, 0.75)),
        (["measure-compare", "--epsilon", "0.5"], lambda: ModelParams(16, 0.75, 0.5)),
        (["risk", "--samples", "1"], lambda: McSpec(20260809, 1)),
        (["risk", "--samples", "100", "--seed", "-1"], lambda: McSpec(-1, 100)),
        (["risk", "--seed", "-1"], lambda: McSpec(-1)),
    ],
    ids=["mu", "risk-mu", "n", "epsilon", "samples", "seed", "quadrature-seed"],
)
def test_model_value_is_rejected_by_its_model_object(argv, build, capsys):
    # the command line only converts mu, n, epsilon, samples and seed: each
    # value's one check is the model object's, so its message is the one line
    # printed, before any row is written (risk --seed -1 is checked on the
    # quadrature path too, which records the seed)
    with pytest.raises(DomainError) as exc:
        build()
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: config: {exc.value}"]
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["measure-compare", "--trunc", "9"],
        ["risk", "--n", "4"],
        ["risk", "--workers", "2"],
        ["convergence", "--samples", "5"],
        ["convergence", "--trunc", "9"],
        ["discriminate", "--trunc", "9"],
        ["discriminate", "--epsilon", "0.2"],
    ],
)
def test_subcommand_rejects_a_flag_it_does_not_read(argv):
    assert run_cli(argv) == 2


def test_readme_flag_table_matches_the_keys():
    # the README table marks, per flag, the subcommands that read it; a key
    # left out of the table must be one every experiment reads (the README
    # names --out and --format in its text)
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    header = next(line for line in text.splitlines() if line.startswith("| flag | meaning |"))
    commands = [cell.strip() for cell in header.strip("|").split("|")[2:]]
    table = {}
    for line in text.splitlines():
        match = re.match(r"\| `--([a-z]+)` \|", line)
        if match:
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")[2:]]
            assert len(cells) == len(commands), line
            table[match.group(1)] = {cmd for cmd, cell in zip(commands, cells) if cell == "x"}
    assert table
    for key, spec in KEYS.items():
        assert spec.commands == table.get(key, set(commands)), key
    assert table.keys() <= KEYS.keys()


@pytest.mark.parametrize(
    "command, keys",
    [
        ("convergence", {"mu", "n", "epsilon", "grid", "workers", "format"}),
        ("discriminate", {"mu", "n", "grid", "workers", "format"}),
        ("measure-compare", {"mu", "n", "epsilon", "grid", "workers", "format"}),
        ("risk", {"mu", "samples", "seed", "format"}),
    ],
)
def test_shared_config_file_echoes_only_the_keys_read(tmp_path, command, keys):
    # one file may hold the keys of every subcommand; each report echoes
    # only its own, and records a seed only where one is read
    cfg = tmp_path / "all.cfg"
    cfg.write_text(
        "mu = 1.0\nn = 16\nepsilon = 0.1\ngrid = 0.5,0\nworkers = 1\n"
        "samples = 0\nseed = 5\nformat = json\n",
        encoding="utf-8",
    )
    out = tmp_path / "r.json"
    assert run_cli([command, "--config", str(cfg), "--out", str(out)]) == 0
    with open(out, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert set(payload["config"]) == keys
    assert payload["seed"] == (5 if command == "risk" else None)


def test_discriminate_automatic_truncation_holds_the_limit_core(tmp_path):
    # at |u| = 10 the mu = 0.9 limit core reaches past 128 rows and keeps
    # them all, so the bound is the two rank cuts 2 p^r alone
    out = tmp_path / "disc.csv"
    assert run_cli(["discriminate", "--mu", "0.9", "--n", "16", "--grid", "10,0", "--out", str(out)]) == 0
    (limit,) = [r for r in read_csv_rows(out) if r["statistic"] == "limit_risk"]
    assert 0.0 < float(limit["error_bound"]) < 1e-12


@pytest.mark.parametrize("norm", [0.0, 0.2, 0.5, 1.0, 3.6])
def test_discriminate_pure_limit_matches_closed_form(tmp_path, norm):
    # the mu = 1 limit row comes from the mirror kernel on the coherent core,
    # as every other mu's does; the closed form is its oracle
    out = tmp_path / "disc.csv"
    assert run_cli(["discriminate", "--mu", "1", "--n", "16", "--grid", f"{norm},0", "--out", str(out)]) == 0
    (limit,) = [r for r in read_csv_rows(out) if r["statistic"] == "limit_risk"]
    value = float(limit["value"])
    assert abs(value - discrimination_limit(LocalParam(norm, 0.0))) <= 1e-15
    if norm == 0.0:
        assert value == 0.5


def test_measure_compare_past_the_injectivity_disk_names_it(capsys):
    # at n = 2, |u| = 3 lies past 0.98 pi sqrt(2)/2, so no TV grid fits
    assert run_cli(["measure-compare", "--n", "2", "--grid", "3,0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and "injectivity radius" in err


@pytest.mark.parametrize("command", ["discriminate", "convergence"])
@pytest.mark.parametrize("point", ["1e20,0", "1e200,0"])
def test_grid_point_past_any_array_index_names_z(command, point, capsys):
    # the limit core would need more rows than an array can index (1e20),
    # or a row count that is not finite (1e200): the column kernel counts
    # them before it allocates anything, and the run exits 2, not with a
    # traceback
    assert run_cli([command, "--mu", "0.75", "--n", "16", "--grid", point]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: |z| = ") and "array can index" in err


@pytest.mark.parametrize("command", ["convergence", "discriminate", "measure-compare"])
def test_subnormal_grid_point_is_the_origin(command, tmp_path):
    # |u| = 1e-320 once divided the column recurrence by a subnormal coupling:
    # convergence and discriminate raised, measure-compare reported nan
    rows = {}
    for point in ("1e-320,0", "0,0"):
        out = tmp_path / f"{point}.json"
        assert run_cli([command, "--n", "16", "--mu", "0.75", "--grid", point, "--format", "json", "--out", str(out)]) == 0
        rows[point] = read_report(str(out)).rows
    for tiny, zero in zip(rows["1e-320,0"], rows["0,0"], strict=True):
        assert tiny.statistic == zero.statistic
        assert abs(tiny.value - zero.value) <= 1e-15 and abs(tiny.error_bound - zero.error_bound) <= 1e-15


@pytest.mark.parametrize("command", ["discriminate", "convergence"])
def test_refused_allocation_is_a_memory_error(command):
    # the limit core at |u| = 1e5 needs a 37.3 GiB row array; under a 2 GiB
    # address-space limit, set in the child alone, numpy refuses it whatever
    # the host's overcommit policy, and the run exits 3 with one line
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-m", "spingauss.cli", command, "--mu", "0.75", "--n", "16", "--grid", "1e5,0"],
        env=env, capture_output=True, text=True, timeout=120, preexec_fn=limit_address_space,
    )
    assert result.returncode == 3
    assert result.stderr.startswith("error: memory: ") and result.stderr.count("\n") == 1
    assert result.stdout == ""



def test_pooled_discrimination_past_the_angle_rule_exits_two():
    # |u|/sqrt(n) = 3.9e17 keeps no digit mod pi: each finite-n task fails
    # before its walk, so the pool has no running task to wait for and the
    # run exits 2 with one line; its own process group lets a run that
    # hangs be stopped whole, pool workers too
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    argv = ["discriminate", "--mu", "0.75", "--n", "65536", "--grid=1e20:-1:2,-1:1:5", "--workers", "2"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "spingauss.cli", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=20)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the pooled run had not exited after 20 s")
    assert proc.returncode == 2
    assert err.startswith("error: config: ") and err.count("\n") == 1
    assert out == ""

# |u| = 1.3 at four angles; each hypot(u_x, u_y) is the double 1.3
COVARIANT_GRID = ((1.3, 0.0), (-0.5, 1.2), (-0.78, -1.04), (1.2, -0.5))


def rows_at_each_angle(runner, **cfg):
    """``runner``'s report rows at each point of COVARIANT_GRID, alone on its
    grid, as {(n, statistic): (value, error_bound)}."""
    out = []
    for ux, uy in COVARIANT_GRID:
        cfg.update(mu=(0.75,), n=(64, 256), epsilon=0.1, grid=(LocalParam(ux, uy),))
        out.append({(r.n, r.statistic): (r.value, r.error_bound) for r in runner(cfg)})
    return out


def test_rotation_covariance_of_report_rows():
    # every state is stored in the frame of its u, and every kernel takes
    # |u| as one double (u.norm, scaled by 1/sqrt(n) or sqrt(2 mu - 1)), so
    # every finite-n, limit and convergence row is bit-identical across the
    # angles of one |u|.  TV rows are left out: the TV grid's angular nodes
    # do not turn with u, so its values move by the grid's quadrature error
    # (8.4e-7 at n = 64).
    for runner in (run_discriminate, run_convergence):
        first, *others = rows_at_each_angle(runner, workers=1)
        for rows in others:
            assert rows == first
