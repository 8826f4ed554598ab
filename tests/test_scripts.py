import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _bench():
    spec = importlib.util.spec_from_file_location("bench_script", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkout(root, files):
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    return root


def test_bench_comparison_refuses_differing_benchmark_code(tmp_path, capsys):
    bench = _bench()
    files = {"BENCHMARK.json": "{}\n", "dblbench/run.py": "run\n", "dblbench/common.py": "common\n", "src/dblkit/a.py": "a\n"}
    here = _checkout(tmp_path / "here", files)
    there = _checkout(tmp_path / "there", {**files, "src/dblkit/a.py": "b\n"})
    # the library may differ, and so may what runs leave behind
    _checkout(there, {"dblbench/out/spans.jsonl": "x\n", "dblbench/__pycache__/run.pyc": "x\n"})
    assert bench.bench_difference(here, there) is None
    _checkout(there, {"dblbench/run.py": "run!\n", "dblbench/common.py": "common!\n"})
    assert bench.bench_difference(here, there) == Path("dblbench/common.py")
    _checkout(there, files)
    _checkout(here, {"dblbench/zz.py": "new\n"})
    assert bench.bench_difference(there, here) == Path("dblbench/zz.py")
    (here / "dblbench/zz.py").unlink()
    (there / "BENCHMARK.json").write_text('{"paths": []}\n')
    assert bench.bench_difference(here, there) == Path("BENCHMARK.json")
    with pytest.raises(SystemExit) as e:
        bench.main(["--against", str(there), "--workload", "documents", "--pairs", "1"])
    assert e.value.code == 2
    assert "the benchmark differs between the checkouts at BENCHMARK.json" in capsys.readouterr().err


# per end-to-end metric, ten paired values on each side: (this, other)
STUB_RUNS = {
    # no change at all: no claim, within the bound
    "setup_s": ([1.0] * 10, [1.0] * 10),
    # 20 % lower, one pair lost: 9 of 10 won, medians apart by more than the
    # other's interquartile range
    "run_s": ([0.8, 0.81, 0.79, 0.8, 0.82, 0.78, 0.8, 0.81, 0.79, 1.2], [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]),
    # every pair won, by less than the other's interquartile range
    "verdict_p50_ms": ([x - 0.01 for x in (1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.2, 0.8, 1.1, 0.9)],
                       [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.2, 0.8, 1.1, 0.9]),
    # 30 % higher, against a bound of 25 %
    "verdict_p90_ms": ([1.3] * 10, [1.0] * 10),
    # higher is better: 30 % lower is worse than the bound
    "laws_per_s": ([700.0] * 10, [1000.0] * 10),
    # half the size, but two pairs lost
    "peak_rss_mb": ([50.0] * 8 + [120.0] * 2, [100.0] * 10),
}


def test_bench_comparison_prints_the_claim_rule_and_the_bound(tmp_path, monkeypatch, capsys):
    bench = _bench()
    other = tmp_path / "other"
    runs = {bench.ROOT: 0, other: 0}

    def workload(name, seed, root):
        i, side = runs[root], 0 if root == bench.ROOT else 1
        runs[root] += 1
        metrics = {key: {"value": values[side][i]} for key, values in STUB_RUNS.items()}
        return {"correct": True, "metrics": metrics, "failed": 0, "attempted": 3}

    monkeypatch.setattr(bench, "workload", workload)
    bench.compare(other, "internal-bundles", 10, 5)
    rows = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()}
    assert {key: rows[key][-3:] for key in STUB_RUNS} == {
        "setup_s": ["0/10", "no", "ok"],
        "run_s": ["9/10", "yes", "ok"],
        "verdict_p50_ms": ["10/10", "no", "ok"],
        "verdict_p90_ms": ["0/10", "no", "worse"],
        "laws_per_s": ["0/10", "no", "worse"],
        "peak_rss_mb": ["8/10", "no", "ok"],
    }
    assert rows["this:"][1:] == ["0", "of", "30", "operations", "failed"]


def test_bench_verdicts_follow_the_better_direction():
    bench = _bench()
    lower, higher = {"better": "lower", "bound": 0.25}, {"better": "higher", "bound": 0.25}
    assert bench.verdicts(lower, [1.0] * 10, [1.2] * 10) == (10, True, False)
    assert bench.verdicts(higher, [1.0] * 10, [1.2] * 10) == (0, False, False)
    assert bench.verdicts(higher, [1.2] * 10, [1.0] * 10) == (10, True, False)
    # a bound is a fraction of the other side's median, on either side of it
    assert bench.verdicts(lower, [1.26] * 10, [1.0] * 10)[2] and not bench.verdicts(lower, [1.24] * 10, [1.0] * 10)[2]
    assert bench.verdicts(higher, [0.74] * 10, [1.0] * 10)[2] and not bench.verdicts(higher, [0.76] * 10, [1.0] * 10)[2]
