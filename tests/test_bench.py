import csv
import dataclasses
import hashlib
import math

import pytest
from scipy import stats

from shrouddb import bench, cli
from shrouddb.bench import (
    METRIC_FIELDS,
    ExperimentSpec,
    FixedClock,
    _fit_line,
    _payload,
    generate_dataset,
    generate_queries,
    read_dataset,
    read_queries,
    run_experiment,
    write_dataset,
    write_queries,
)
from shrouddb.data import point_query, range_query
from shrouddb.engine import EngineConfig
from shrouddb.errors import DataError, ParameterError
from shrouddb.sanitizer import tree_nodes_count


def spec(**kw):
    base = dict(n=400, domain=100, record_size=32, selectivity=0.05,
                queries=12, mode="gamma", m=2, seed=3)
    base.update(kw)
    return ExperimentSpec(**base)


def hist_csv(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["lo", "hi", "count"])
        w.writerows(rows)
    return str(path)


# -- spec and clock ------------------------------------------------------------

def test_spec_validation():
    """A setting is checked where the run uses it, not when the spec is built."""
    with pytest.raises(ParameterError, match="record size must be >= 1"):
        spec(record_size=0)
    for bad in [dict(n=0), dict(queries=0), dict(distribution="zipf"),
                dict(query_sampling="head"), dict(query_kind="join"),
                dict(distribution="histogram")]:
        s = spec(**bad)
        with pytest.raises(ParameterError):
            run_experiment(s, clock=FixedClock())


def test_spec_defaults_are_the_engines():
    engine_defaults = {f.name: f.default for f in dataclasses.fields(EngineConfig)}
    for name in ("mode", "m", "epsilon", "beta", "fanout"):
        assert getattr(ExperimentSpec, name) == engine_defaults[name]


def test_run_defaults_are_the_specs(monkeypatch):
    seen = []

    def run_experiment(spec, **kw):
        seen.append(spec)
        raise ParameterError("stop")

    monkeypatch.setattr(bench, "run_experiment", run_experiment)
    assert cli.main(["run"]) == 2
    assert seen == [ExperimentSpec(n=1000, domain=10000, record_size=1024,
                                   selectivity=0.005, queries=100)]


def test_fixed_clock_one_ms_steps():
    clock = FixedClock()
    a, b, c = clock(), clock(), clock()
    assert (b - a, c - b) == (0.001, 0.001)


def test_payload_is_seeded_shake():
    assert _payload(7, 3, 16) == hashlib.shake_128(b"7:3").digest(16)
    assert _payload(7, 3, 16) != _payload(7, 4, 16)
    assert _payload(8, 3, 16) != _payload(7, 3, 16)


# -- dataset generation ----------------------------------------------------------

def test_uniform_keys_are_flat():
    db = generate_dataset(20000, 100, 8, seed=11)
    counts = [0] * 100
    for r in db.records:
        counts[r.key] += 1
    assert stats.chisquare(counts).pvalue > 0.001


def test_histogram_respects_weights(tmp_path):
    path = hist_csv(tmp_path / "h.csv", [(0, 50, 9), (50, 100, 1)])
    db = generate_dataset(20000, 100, 8, seed=11,
                          distribution="histogram", histogram_file=path)
    low = sum(1 for r in db.records if r.key < 50)
    assert abs(low / 20000 - 0.9) < 0.03
    assert all(0 <= r.key < 100 for r in db.records)


def test_histogram_validation(tmp_path):
    with pytest.raises(DataError):
        generate_dataset(10, 100, 8, 0, "histogram",
                         hist_csv(tmp_path / "a.csv", [(5, 5, 3)]))
    with pytest.raises(DataError):
        generate_dataset(10, 100, 8, 0, "histogram",
                         hist_csv(tmp_path / "b.csv", [(0, 10, 0)]))
    with pytest.raises(DataError):
        generate_dataset(10, 100, 8, 0, "histogram",
                         hist_csv(tmp_path / "c.csv", [(90, 110, 3)]))


def test_dataset_rids_sequential_payload_sized():
    db = generate_dataset(50, 10, 24, seed=5)
    assert [r.rid for r in db.records] == list(range(50))
    assert all(len(r.payload) == 24 for r in db.records)


# -- query generation -------------------------------------------------------------

def test_range_span_is_exact():
    qs = generate_queries(1000, 0.005, 200, seed=9)
    assert all(q.b - q.a + 1 == 5 for q in qs)
    assert all(0 <= q.a <= q.b < 1000 for q in qs)


def test_selectivity_bounds():
    with pytest.raises(ParameterError):
        generate_queries(1000, 0.0001, 5, seed=0)  # span rounds to zero
    with pytest.raises(ParameterError):
        generate_queries(10, 1.5, 5, seed=0)
    for kind in ("range", "point"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterError, match="not finite"):
                generate_queries(100, bad, 5, seed=0, kind=kind)


@pytest.mark.parametrize("sampling, keys", [("uniform", None), ("cdf", [5, 9, 77, 99])])
def test_point_queries_are_ranges_of_span_one(sampling, keys):
    # a point query ignores the selectivity and spans one value
    points = generate_queries(100, 0.3, 200, seed=6, kind="point",
                              sampling=sampling, data_keys=keys)
    assert points == generate_queries(100, 0.01, 200, seed=6, sampling=sampling,
                                      data_keys=keys)
    assert all(q == point_query(q.a) for q in points)


def test_cdf_ranges_cover_a_data_key():
    keys = [3, 97, 42]
    qs = generate_queries(100, 0.1, 300, seed=2, sampling="cdf", data_keys=keys)
    assert all(any(q.a <= k <= q.b for k in keys) for q in qs)
    assert all(0 <= q.a <= q.b < 100 for q in qs)


def test_cdf_points_come_from_data():
    keys = [5, 9, 77]
    qs = generate_queries(100, 0.1, 100, seed=2, kind="point",
                          sampling="cdf", data_keys=keys)
    assert all(q.a == q.b and q.a in keys for q in qs)


def test_cdf_needs_keys():
    with pytest.raises(ParameterError):
        generate_queries(100, 0.1, 5, seed=0, sampling="cdf")


@pytest.mark.parametrize("kind", ["range", "point"])
def test_unknown_sampling_is_rejected(kind):
    with pytest.raises(ParameterError, match="unknown query sampling 'CDF'"):
        generate_queries(100, 0.1, 5, seed=0, kind=kind, sampling="CDF", data_keys=[1, 2])


# -- CSV interchange ----------------------------------------------------------------

def test_dataset_roundtrip(tmp_path):
    db = generate_dataset(80, 50, 16, seed=4)
    path = tmp_path / "data.csv"
    write_dataset(db, path)
    back = read_dataset(path, 16, seed=4)
    assert back.records == db.records  # payloads re-derived from the seed


def test_queries_roundtrip(tmp_path):
    qs = [point_query(5), range_query(3, 9), point_query(0)]
    path = tmp_path / "q.csv"
    write_queries(qs, path)
    assert read_queries(path) == qs


def test_empty_files_rejected(tmp_path):
    for name, reader in [("d.csv", lambda p: read_dataset(p, 8, 0)),
                         ("q.csv", read_queries)]:
        path = tmp_path / name
        path.write_text("id,key\n" if name == "d.csv" else "a,b\n")
        with pytest.raises(DataError):
            reader(path)


# -- fitting ---------------------------------------------------------------------

def test_fit_line_recovers_slope_intercept():
    xs = [1.0, 2.0, 3.0, 4.0]
    a1, a2 = _fit_line(xs, [2.5 * x + 7.0 for x in xs])
    assert a1 == pytest.approx(2.5)
    assert a2 == pytest.approx(7.0)


def test_fit_line_flat_x():
    assert _fit_line([3.0, 3.0, 3.0], [1.0, 2.0, 6.0]) == (0.0, 3.0)


# -- experiments --------------------------------------------------------------------

def test_engine_and_scan_agree_on_answers():
    clock = FixedClock()
    eng = run_experiment(spec(), clock=clock)
    scan = run_experiment(spec(mode="linear-scan"), clock=FixedClock())
    assert eng.answers == scan.answers
    assert eng.failed_queries == 0


def test_csv_shape_and_summary_sums():
    res = run_experiment(spec(queries=6), clock=FixedClock())
    lines = res.to_csv().splitlines()
    assert lines[0] == ",".join(METRIC_FIELDS)
    assert len(lines) == 1 + 6 + 1  # header, rows, summary
    rows = list(csv.DictReader(res.to_csv().splitlines()))
    summary = rows[-1]
    assert summary["index"] == "summary"
    for col in ["true_count", "fetched_count", "bytes_down", "roundtrips"]:
        assert int(summary[col]) == sum(int(r[col]) for r in rows[:-1])
    assert float(summary["storage_a1"]) > 1.0  # server holds more than raw data
    # one shared sanitizer, 8 bytes per counter, over the domain padded to 16^2
    assert float(summary["storage_a2"]) == 8 * tree_nodes_count(256, 16)
    assert all(r["elapsed_ms"] == "1.000" for r in rows[:-1])


def test_scan_metrics_shape():
    n = 150
    res = run_experiment(spec(n=n, queries=5, mode="linear-scan"),
                         clock=FixedClock())
    rows = list(csv.DictReader(res.to_csv().splitlines()))
    slot = 16 + 32 + 28  # rid+key header, payload, nonce and tag
    for r in rows[:-1]:
        assert int(r["fetched_count"]) == n
        assert int(r["roundtrips"]) == 1
        assert int(r["bytes_down"]) == n * slot
    summary = rows[-1]
    assert summary["comm_a1"] == "0.000000"  # scan cost ignores the answer size
    assert float(summary["comm_a2"]) == n * slot
    assert summary["storage_a2"] == "0.000000"


def test_byte_identical_under_fixed_clock():
    a = run_experiment(spec(seed=17), clock=FixedClock()).to_csv()
    b = run_experiment(spec(seed=17), clock=FixedClock()).to_csv()
    assert a == b


def test_workload_files_feed_run(tmp_path):
    s = spec(queries=4)
    db = generate_dataset(s.n, s.domain, s.record_size, s.seed)
    qs = generate_queries(s.domain, s.selectivity, 4, s.seed)
    dpath, qpath = tmp_path / "d.csv", tmp_path / "q.csv"
    write_dataset(db, dpath)
    write_queries(qs, qpath)
    res = run_experiment(s, clock=FixedClock(), dataset=str(dpath),
                         queries_file=str(qpath))
    for q, ans in zip(qs, res.answers):
        assert ans == [r.rid for r in db.records if q.a <= r.key <= q.b]


# -- command-line input errors -------------------------------------------------------

RUN = ["run", "--n", "20", "--domain", "10", "--record-size", "8",
       "--queries", "3", "--selectivity", "0.2"]
GEN = ["gen-data", "--n", "10", "--domain", "10", "--distribution", "histogram"]
GEN_POINTS = ["gen-queries", "--domain", "10", "--queries", "3", "--seed", "1",
              "--query-kind", "point", "--query-sampling", "cdf", "--dataset", "{d}"]


@pytest.mark.parametrize("argv, files, message", [
    (GEN, {}, "needs --histogram-file"),
    (GEN + ["--histogram-file", "{h}"], {"h": "lo,hi,count\n0,5,x\n"},
     "h.csv line 2: expected integer columns lo,hi,count"),
    (RUN + ["--dataset", "{d}"], {"d": "id,key\n0,abc\n"},
     "d.csv line 2: expected integer columns id,key"),
    (RUN + ["--queries-file", "{q}"], {"q": "x,y\n1,2\n"},
     "q.csv line 1: expected integer columns a,b"),
    (RUN + ["--mode", "linear-scan", "--queries-file", "{q}"], {"q": "a,b\n5,30\n"},
     "range [5, 30] outside domain [0, 10)"),
    (RUN + ["--mode", "linear-scan", "--dataset", "{d}"], {"d": "id,key\n0,3\n1,50\n"},
     "record 1 key 50 outside [0, 10)"),
    (RUN + ["--record-size", "0", "--mode", "linear-scan"], {}, "record size must be >= 1"),
    (GEN_POINTS, {"d": "id,key\n0,50\n1,3\n"}, "data key 50 outside [0, 10)"),
    (RUN + ["--epsilon", "inf"], {}, "epsilon must be positive"),
    (RUN + ["--epsilon", "nan"], {}, "epsilon must be positive"),
    (RUN + ["--epsilon", "1e-320"], {}, "epsilon 1e-320 is too small"),
    (RUN + ["--beta", "1e-300"], {}, "beta 1e-300 is too small"),
    (RUN + ["--selectivity", "nan"], {}, "selectivity nan is not finite"),
], ids=["no-histogram-file", "histogram-row", "dataset-row", "queries-header",
        "scan-query-domain", "scan-key-domain", "scan-record-size", "cdf-point-key-domain",
        "epsilon-inf", "epsilon-nan", "epsilon-subnormal", "beta-tiny", "selectivity-nan"])
def test_cli_input_errors_exit_2(argv, files, message, tmp_path, capsys):
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text(text)
    argv = [a.format(**paths) for a in argv] + ["--out", str(tmp_path / "out.csv")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


UNUSED = [["--queries", "0"], ["--n", "0"], ["--distribution", "histogram"]]


@pytest.mark.parametrize("setting", UNUSED, ids=["queries-0", "n-0", "histogram-no-file"])
def test_cli_ignores_settings_the_files_replace(setting, tmp_path, capsys):
    """With a dataset and a query file, the generators' settings go unused,
    so a value they would refuse does not stop the run."""
    d, q = tmp_path / "d.csv", tmp_path / "q.csv"
    d.write_text("id,key\n0,3\n1,7\n2,3\n")
    q.write_text("a,b\n3,3\n2,8\n")
    argv = RUN + setting + ["--dataset", str(d), "--queries-file", str(q), "--fixed-clock"]
    assert cli.main(argv) == 0
    assert "queries=2 failed=0 true=5" in capsys.readouterr().out


@pytest.mark.parametrize("setting, message", zip(UNUSED, [
    "query count must be >= 1", "dataset size must be >= 1",
    "histogram distribution needs --histogram-file"]), ids=["queries-0", "n-0", "histogram-no-file"])
def test_cli_refuses_settings_the_run_uses(setting, message, capsys):
    assert cli.main(RUN + setting) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
