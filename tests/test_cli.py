import csv

import pytest

from ntnmc import campaign, cli
from ntnmc.cli import main, parse_policies, parse_seeds
from ntnmc.campaign import run_campaign
from ntnmc.config import load_config

TINY_CFG = """
sim_duration_s = 0.6
warmup_s = 0.3
n_ue_per_sector = 2
"""


def test_parse_seeds_forms():
    assert parse_seeds("1..3") == [1, 2, 3]
    assert parse_seeds("5") == [5]
    assert parse_seeds("1,2,9") == [1, 2, 9]
    assert parse_seeds(" 4..4 ") == [4]
    with pytest.raises(ValueError):
        parse_seeds("5..2")


def test_parse_policies_validates_names():
    assert parse_policies("mcs,off") == ["mcs", "off"]
    with pytest.raises(ValueError):
        parse_policies("mcs,bogus")
    with pytest.raises(ValueError):
        parse_policies(" , ")


def test_empty_or_repeated_lists_are_rejected():
    # an empty list leaves no run to summarize; a repeated seed or policy
    # would pool one run twice
    for text in ("", ",", " , ", "1,1", "2,1,2"):
        with pytest.raises(ValueError):
            parse_seeds(text)
    for text in ("off,off", "mcs, off ,mcs"):
        with pytest.raises(ValueError):
            parse_policies(text)


@pytest.mark.parametrize("flag, value", [
    ("--seeds", ""), ("--seeds", ","), ("--seeds", "1,1"),
    ("--policies", "off,off")])
def test_empty_or_repeated_list_is_usage_error(tmp_path, flag, value):
    out = tmp_path / "x"
    assert main(["run", "--out", str(out), "--seeds", "1", flag, value]) == 2
    assert not out.exists()


@pytest.mark.parametrize("policies, seeds", [
    (["off"], []), ([], [1]), (["off"], [1, 2, 1]), (["off", "off"], [1]),
    (["nope"], [1]), (["off"], [1, "1"]), (["off"], [1.5]), (["off"], [True])])
def test_campaign_rejects_empty_or_repeated_lists(policies, seeds):
    with pytest.raises(ValueError):
        run_campaign(load_config(None, environ={}, sim_duration_s=0.02,
                                 warmup_s=0.01), policies, seeds)


@pytest.mark.parametrize("jobs", [1.5, 0, -3, True, "2"])
def test_campaign_rejects_a_bad_worker_count(jobs, monkeypatch):
    # the count is checked before any pool opens or any run starts
    def never(*_args, **_kwargs):
        raise AssertionError("a bad worker count reached a run")

    monkeypatch.setattr(campaign.multiprocessing, "Pool", never)
    monkeypatch.setattr(campaign, "run_single", never)
    with pytest.raises(ValueError, match="jobs"):
        run_campaign(load_config(None, environ={}), ["off"], [1, 2],
                     jobs=jobs)


def test_campaign_opens_no_more_workers_than_runs(monkeypatch):
    opened = []

    class InlinePool:
        def __init__(self, processes):
            opened.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(campaign.multiprocessing, "Pool", InlinePool)
    monkeypatch.setattr(campaign, "run_single",
                        lambda cfg, seed: (cfg.policy, seed))
    monkeypatch.setattr(campaign, "summarize_setting",
                        lambda policy, chunk: chunk)
    cfg = load_config(None, environ={})
    runs = [("off", 1), ("off", 2), ("mcs", 1), ("mcs", 2)]
    for jobs, workers in ((2, [2]), (4, [4]), (9, [4]), (1, [])):
        opened.clear()
        _, results = run_campaign(cfg, ["off", "mcs"], [1, 2], jobs=jobs)
        assert (opened, results) == (workers, runs)
    # a single run never forks
    assert run_campaign(cfg, ["off"], [1], jobs=9)[1] == [("off", 1)]
    assert opened == []


def test_validate_prints_effective_config(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SIM_POLICY", raising=False)
    p = tmp_path / "run.cfg"
    p.write_text("isd_m = 5000\n")
    assert main(["validate", "--config", str(p)]) == 0
    out = capsys.readouterr().out
    assert "policy = mcs" in out
    assert "isd_m = 5000.0" in out


def test_table_dump_lists_all_entries(capsys):
    assert main(["table-dump"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "mcs,min_sinr_db,efficiency_bits_per_re"
    assert lines[1] == "0,-9.50,0.0586"
    assert lines[32] == "31,21.50,7.4063"
    assert "noise_per_re_dbm_nf7,-125.2391" in out
    assert "fspl_600km_2ghz_db,154.0336" in out


def test_run_writes_artifacts_matching_library_results(tmp_path, capsys,
                                                       monkeypatch):
    monkeypatch.delenv("SIM_POLICY", raising=False)
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY_CFG)
    out = tmp_path / "res"
    rc = main(["run", "--config", str(cfg_path), "--out", str(out),
               "--policies", "off,mcs", "--seeds", "3"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "wrote artifacts to" in printed

    with open(out / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["setting"] for r in rows] == ["off", "mcs"]
    assert (out / "cdf_off.csv").exists()
    assert (out / "cdf_mcs.csv").exists()
    assert (out / "events_mcs_3.csv").exists()
    assert (out / "manifest.json").exists()

    cfg = load_config(str(cfg_path), environ={})
    summaries, _ = run_campaign(cfg, ["off", "mcs"], [3])
    for row, s in zip(rows, summaries):
        assert float(row["mean_kbps"]) == pytest.approx(s.mean_kbps, abs=5e-7)
        assert float(row["p5_kbps"]) == pytest.approx(s.p5_kbps, abs=5e-7)


def test_bad_policy_is_usage_error(tmp_path):
    assert main(["run", "--out", str(tmp_path / "x"),
                 "--policies", "bogus", "--seeds", "1"]) == 2


def test_bad_config_file_is_usage_error(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("not_a_knob = 1\n")
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "x"),
                 "--seeds", "1"]) == 2


@pytest.mark.parametrize("value, message", [
    pytest.param("inf", "eval_period_ms must be finite", id="inf"),
    pytest.param("1e303", "eval_period_ms overflows a count of ns",
                 id="1e303")])
def test_infinite_period_is_usage_error(tmp_path, capsys, value, message):
    # `validate` used to raise OverflowError on both, a traceback at the CLI
    p = tmp_path / "inf.cfg"
    p.write_text(f"eval_period_ms = {value}\n")
    assert main(["validate", "--config", str(p)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["validate"],
                                     ["run", "--seeds", "1", "--out", "out"]])
@pytest.mark.parametrize("path", ["missing.cfg", ".", "latin1.cfg"])
def test_unreadable_config_is_usage_error(tmp_path, capsys, monkeypatch,
                                          command, path):
    # a missing path or a directory exited 1, as a runtime failure does
    monkeypatch.chdir(tmp_path)
    (tmp_path / "latin1.cfg").write_bytes(b"isd_m = 5000  # \xe9\n")
    assert main(command + ["--config", path]) == 2
    assert f"config error: cannot read {path}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_misspelt_env_setting_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("SIM_ISDM", "5000")
    assert main(["validate"]) == 2
    assert "SIM_ISDM" in capsys.readouterr().err


def test_run_past_satellite_pass_is_usage_error(tmp_path, capsys):
    # with the default layout the satellite leaves the first UE's sky
    # between 384 and 385 s
    p = tmp_path / "long.cfg"
    p.write_text("sim_duration_s = 400\n")
    out = tmp_path / "x"
    assert main(["run", "--config", str(p), "--out", str(out),
                 "--seeds", "1"]) == 2
    assert "sim_duration_s" in capsys.readouterr().err
    assert not out.exists()


def test_bad_jobs_is_usage_error(tmp_path):
    assert main(["run", "--out", str(tmp_path / "x"), "--seeds", "1",
                 "--jobs", "0"]) == 2


def test_a_value_error_inside_a_run_is_a_runtime_failure(tmp_path,
                                                         monkeypatch, capsys):
    # it printed "config error:" and exited 2, as a bad config does
    def fail(*_args, **_kwargs):
        raise ValueError("raised inside the run")

    monkeypatch.setattr(cli, "run_campaign", fail)
    with pytest.raises(ValueError, match="raised inside the run"):
        main(["run", "--out", str(tmp_path / "x"), "--seeds", "1"])
    assert "config error" not in capsys.readouterr().err


def test_unwritable_out_dir_fails_before_any_run(tmp_path):
    blocker = tmp_path / "occupied"
    blocker.write_text("x")
    rc = main(["run", "--out", str(blocker / "sub"), "--seeds", "1"])
    assert rc == 1
