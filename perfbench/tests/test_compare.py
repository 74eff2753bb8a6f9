"""The pairing rule of ``compare.py``, on synthetic run sets."""

from __future__ import annotations

import json

import compare


def _vals(base: float, step: float, seeds=range(1, 11)) -> dict[int, float]:
    return {s: base + step * (s % 5) for s in seeds}


def test_clear_gain_needs_the_held_out_seed():
    base, head = _vals(100, 0.5), _vals(90, 0.5)
    held_base, held_head = {101: 100.0}, {101: 91.0}
    v = compare.verdict(base, head, held_base, held_head, "lower", 0.1)
    assert v["verdict"] == "gain" and v["wins"] == 10
    assert compare.verdict(base, head, {}, {}, "lower", 0.1)["verdict"] == "no change"
    lost = compare.verdict(base, head, held_base, {101: 100.5}, "lower", 0.1)
    assert lost["verdict"] == "no change"


def test_gain_needs_nine_tenths_of_the_pairs():
    base = _vals(100, 0.5)
    head = {s: v - 10 for s, v in base.items()}
    head[1] = head[2] = base[1] + 1  # two losses out of ten
    v = compare.verdict(base, head, {101: 100.0}, {101: 90.0}, "lower", 0.2)
    assert v["wins"] == 8 and v["verdict"] != "gain"


def test_higher_is_better_metrics_flip_the_rule():
    base, head = _vals(10, 0.05), _vals(12, 0.05)
    v = compare.verdict(base, head, {101: 10.0}, {101: 12.0}, "higher", 0.1)
    assert v["verdict"] == "gain"
    assert compare.verdict(head, base, {}, {}, "higher", 0.1)["verdict"] == "regression"


def test_regression_beyond_the_bound():
    base, head = _vals(100, 0.5), _vals(120, 0.5)
    assert compare.verdict(base, head, {}, {}, "lower", 0.1)["verdict"] == "regression"
    assert compare.verdict(base, _vals(105, 0.5), {}, {}, "lower", 0.1)["verdict"] == "no change"


def test_spread_wider_than_the_bound_is_unresolved():
    base = {s: 100 + 30 * (s % 2) for s in range(1, 11)}
    head = {s: 100 + 30 * ((s + 1) % 2) for s in range(1, 11)}
    assert compare.verdict(base, head, {}, {}, "lower", 0.1)["verdict"] == "unresolved"


def test_same_commit_against_itself_is_no_change():
    base = _vals(100, 0.5)
    assert compare.verdict(base, dict(base), {}, {}, "lower", 0.1)["verdict"] == "no change"


def _record(side, wl, seed, value, attempted=10, failed=0, holdout=False):
    metrics = {m["name"]: {"value": value, "unit": m["unit"]}
               for m in compare.SPEC["end_to_end"]}
    return {"side": side, "workload": wl, "seed": seed, "holdout": holdout,
            "result": {"correct": True, "attempted": attempted,
                       "failed": failed, "metrics": metrics}}


def test_report_flags_a_growing_failed_share(tmp_path, capsys):
    wl = compare.SPEC["workloads"][0]["name"]
    recs = [_record("base", wl, s, 100.0) for s in range(1, 11)]
    recs += [_record("head", wl, s, 100.0, failed=1 if s == 3 else 0)
             for s in range(1, 11)]
    path = tmp_path / "runs.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in recs))
    assert compare.main(["report", str(path)]) == 1
    assert "GREW" in capsys.readouterr().out
    same = [r for r in recs if r["side"] == "base"]
    same += [dict(r, side="head") for r in same]
    path.write_text("".join(json.dumps(r) + "\n" for r in same))
    assert compare.main(["report", str(path)]) == 0
