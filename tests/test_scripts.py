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
