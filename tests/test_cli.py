import json

import pytest

from odolab import cli
from odolab.cli import build_parser, main
from odolab.numerics import DEFAULT_EPS_EXACT, DEFAULT_EPS_RANK, Tolerance
from odolab.symbol import DEFAULT_BOUNDARY_GRID, Symbol, load_symbol, save_symbol


@pytest.fixture
def one_plus_z(tmp_path):
    path = tmp_path / "one_plus_z.json"
    save_symbol(Symbol(2, 1, {((), 1, 1): 1.0, ((1,), 1, 1): 1.0}), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_missing_file_exits_one(capsys):
    code, _out = run(capsys, "classify", "/no/such/file.json")
    assert code == 1


def test_usage_error_exits_one(capsys):
    code, _out = run(capsys, "symbol")  # no file and no action flag
    assert code == 1


def test_boundary_zero_refusal_exits_two(capsys, one_plus_z):
    code, _out = run(capsys, "classify", one_plus_z, "--invertibility", "--depth", "4")
    assert code == 2


def test_classify_without_invertibility_succeeds(capsys, one_plus_z):
    code, out = run(capsys, "classify", one_plus_z, "--no-invertibility", "--depth", "4")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["invertible_checked"] is False
    assert report["isometric"] is False


def test_classify_checks_invertibility_by_default(capsys):
    # the library's classify defaults to invertibility=True; so does the CLI
    code, out = run(capsys, "classify", "--gallery", "shift", "--depth", "3")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["invertible_checked"] is True
    assert report["invertible"] is False


def test_classify_depth_zero_succeeds(capsys):
    code, out = run(capsys, "classify", "--gallery", "vacuum", "--depth", "0")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["fredholm_index"] == 0
    assert report["mult_wl"] == report["mult_mtheta"] == 0


def test_classify_leaves_wold_open_below_2k_minus_1(capsys):
    # shift by z^2: the symbol-side count is short at depth 2, so no pair
    code, out = run(capsys, "classify", "--gallery", "shift", "--param", "k=2", "--param", "n=1", "--depth", "2")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["mult_wl"] is None and report["mult_mtheta"] is None
    assert report["fredholm_index"] == -2


def test_gallery_build_classify_round_trip(capsys, tmp_path):
    path = str(tmp_path / "shift.json")
    code, _out = run(capsys, "gallery", "build", "shift", "--param", "k=1", "--out", path)
    assert code == 0
    sym = load_symbol(path)
    assert sym.entry((1,), 1, 1) == 1.0
    code, out = run(capsys, "classify", path, "--depth", "4")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["isometric"] is True
    assert report["fredholm_index"] == -1
    assert report["mult_wl"] == report["mult_mtheta"] == 1


def test_gallery_list_contains_all_names(capsys):
    code, out = run(capsys, "gallery", "list", "--format", "text")
    assert code == 0
    names = out.strip().splitlines()
    assert "moebius" in names and "shift" in names


def test_dump_header_and_entries(capsys):
    code, out = run(capsys, "dump", "--gallery", "shift", "--depth", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# 2 1 1 2"
    assert lines[1].split() == ["1", "0", "1", "0"]


def test_verify_suite_passes(capsys):
    code, out = run(capsys, "verify", "wold")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["suites"][0]["suite"] == "wold"


def test_reports_byte_identical(capsys, one_plus_z):
    _code, first = run(capsys, "classify", one_plus_z, "--no-invertibility", "--depth", "3")
    _code, second = run(capsys, "classify", one_plus_z, "--no-invertibility", "--depth", "3")
    assert first == second


def test_csv_format(capsys, one_plus_z):
    code, out = run(capsys, "norm", one_plus_z, "--depth", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("report.sigma_max,") for line in lines)


def test_symbol_supnorm_bracket(capsys, one_plus_z):
    code, out = run(capsys, "symbol", one_plus_z, "--supnorm")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["lower"] == 2.0
    assert report["upper"] >= report["lower"]


def test_symbol_inner_flag(capsys, tmp_path):
    path = str(tmp_path / "z.json")
    save_symbol(Symbol(2, 1, {((1,), 1, 1): 1.0}), path)
    code, out = run(capsys, "symbol", path, "--inner")
    assert code == 0
    assert json.loads(out)["report"]["is_inner"] is True


def test_douglas_self_and_refusal(capsys, tmp_path):
    shift = str(tmp_path / "shift.json")
    vac = str(tmp_path / "vac.json")
    save_symbol(Symbol(2, 1, {((1,), 1, 1): 1.0}), shift)
    save_symbol(Symbol(2, 1, {((), 1, 1): 1.0}), vac)
    code, out = run(capsys, "douglas", shift, shift, "--depth", "3")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["contained"] is True
    assert report["factor_re"] == [[1.0]]
    assert report["wl_gap"] <= 1e-12
    code, out = run(capsys, "douglas", vac, shift, "--depth", "3")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["contained"] is False
    assert report["residual"] == pytest.approx(1.0)


def test_bad_gallery_param_exits_one(capsys):
    code, _out = run(capsys, "classify", "--gallery", "shift", "--param", "nope")
    assert code == 1


def test_unknown_gallery_param_exits_one(capsys):
    code = main(["classify", "--gallery", "shift", "--param", "foo=1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "foo" in err and "accepted: k, n, d" in err


@pytest.mark.parametrize("argv, named", [
    (["gallery", "build", "shift", "--param", "k=foo"], "'shift' cannot take k='foo'"),
    (["classify", "--gallery", "blaschke", "--param", "zeros=2"], "'blaschke' cannot take zeros=2"),
])
def test_wrong_gallery_param_type_exits_one(capsys, argv, named):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:") and named in captured.err


@pytest.mark.parametrize("argv", [
    ["classify", "--gallery", "shift", "--depth", "2"],
    ["norm", "--gallery", "shift", "--depth", "2", "--format", "csv"],
    ["defect", "--gallery", "diagonal", "--param", "d=2", "--depth", "3", "--format", "text"],
    ["gallery", "list"],
    ["gallery", "list", "--format", "text"],
    ["gallery", "build", "shift", "--param", "k=2"],
    ["dump", "--gallery", "shift", "--depth", "2"],
], ids=["json", "csv", "text", "gallery-list-json", "gallery-list-text", "gallery-build", "dump"])
def test_out_file_holds_the_stdout_bytes(capsys, tmp_path, argv):
    code, out = run(capsys, *argv)
    assert code == 0 and out
    path = tmp_path / "report"
    code, quiet = run(capsys, *argv, "--out", str(path))
    assert code == 0 and quiet == ""
    assert path.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize("argv", [
    ["dump", "--gallery", "shift", "--seed", "0"],
    ["dump", "--gallery", "shift", "--format", "json"],
    ["gallery", "list", "--depth", "3"],
    ["gallery", "list", "--tol-exact", "1e-12"],
    ["gallery", "build", "shift", "--format", "json"],
    ["symbol", "--gallery", "shift", "--inner", "--depth", "3"],
    ["verify", "wold", "--depth", "3"],
    ["symbol", "--gallery", "shift", "--inner", "--seed", "1"],
    ["douglas", "{file}", "{file}", "--seed", "1"],
    ["coburn", "--gallery", "shift", "--grid", "64"],
    ["coburn", "--gallery", "shift", "--seed", "1"],
    ["hypo", "--gallery", "shift", "--grid", "64"],
    ["hypo", "--gallery", "shift", "--seed", "1"],
    ["verify", "wold", "--tol-exact", "1e-9"],
    ["verify", "wold", "--tol-rank", "1e-7"],
    ["verify", "wold", "--grid", "64"],
])
def test_options_a_command_does_not_read_are_refused(capsys, one_plus_z, argv):
    code, out = run(capsys, *[arg.format(file=one_plus_z) for arg in argv])
    assert code == 1 and out == ""


def test_defaults_are_the_library_defaults(capsys, tmp_path):
    code, out = run(capsys, "norm", "--gallery", "shift", "--depth", "2")
    assert code == 0
    config = json.loads(out)["config"]
    assert (config["tol_exact"], config["tol_rank"]) == (DEFAULT_EPS_EXACT, DEFAULT_EPS_RANK)
    assert config["grid"] == DEFAULT_BOUNDARY_GRID
    # douglas resolves its depth over both symbols with the same rule
    path = str(tmp_path / "z.json")
    save_symbol(Symbol(1, 1, {((1,), 1, 1): 1.0}), path)
    code, out = run(capsys, "douglas", path, path)
    assert code == 0
    assert json.loads(out)["config"]["depth"] == 64


def test_douglas_samples_the_grid_it_reports(capsys, monkeypatch, one_plus_z):
    grids = []
    real = cli.douglas_factor

    def spy(*args, grid):
        grids.append(grid)
        return real(*args, grid=grid)

    monkeypatch.setattr(cli, "douglas_factor", spy)
    code, out = run(capsys, "douglas", one_plus_z, one_plus_z, "--depth", "2", "--grid", "64")
    assert code == 0 and grids == [64]
    assert json.loads(out)["config"]["grid"] == 64
    code, _out = run(capsys, "douglas", one_plus_z, one_plus_z, "--theta-grid", "64")
    assert code == 1


class ReadTolerance(Tolerance):
    """A Tolerance that records which of its thresholds get read."""

    def __post_init__(self):
        object.__setattr__(self, "read", set())
        super().__post_init__()
        self.read.clear()

    def __getattribute__(self, name):
        if name.startswith("eps_"):
            object.__getattribute__(self, "read").add(name)
        return object.__getattribute__(self, name)


SET = {"tol_exact": 1e-9, "tol_rank": 1e-7, "grid": 512, "seed": 17}

# (argv, the library entry point its report comes from); every config
# option a subcommand declares is set to the non-default value in SET
READ_CASES = [
    (["classify", "--gallery", "shift"], "classify"),
    (["symbol", "--gallery", "shift", "--inner"], "is_inner_exact"),
    (["symbol", "--gallery", "shift", "--supnorm"], "sup_norm"),
    (["defect", "--gallery", "shift"], "defect_with_stability"),
    (["norm", "--gallery", "shift"], "norm_report"),
    (["douglas", "{file}", "{file}"], "douglas_factor"),
    (["coburn", "--gallery", "shift", "--at", "0.5"], "coburn_bound"),
    (["hypo", "--gallery", "shift"], "hyponormality_probe"),
    (["verify", "wold"], "run_suite"),
]
# declared but never read, each for a stated reason: the benchmark's
# in-process CLI calls pass these ...
BENCHMARK_PINNED = {("classify", "seed"), ("defect", "grid"), ("defect", "seed"), ("norm", "seed")}
# ... and the tolerances come as a pair, where the computation reads one
TOLERANCE_PAIRED = {("symbol", "tol_rank"), ("defect", "tol_exact"), ("norm", "tol_rank"),
                    ("coburn", "tol_rank"), ("hypo", "tol_rank")}


def _subcommands():
    subs = build_parser()._subparsers._group_actions[0].choices
    return {name: {action.dest for action in sub._actions} for name, sub in subs.items()}


def test_every_config_option_a_report_prints_reaches_its_computation(capsys, monkeypatch, one_plus_z):
    monkeypatch.setattr(cli, "Tolerance", ReadTolerance)
    subcommands = _subcommands()
    reached = {}
    for argv, entry in READ_CASES:
        command = argv[0]
        dests = subcommands[command]
        declared = dests & set(cli.CONFIG_OPTIONS)
        options = [arg for key in sorted(declared) for arg in (cli.CONFIG_OPTIONS[key][0], str(SET[key]))]
        calls = []
        real = getattr(cli, entry)

        def spy(*args, real=real, **kwargs):
            calls.append(args + tuple(kwargs.values()))
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, entry, spy)
        depth = ["--depth", "2"] if "depth" in dests else []
        code, out = run(capsys, *[arg.format(file=one_plus_z) for arg in argv], *depth, *options)
        assert code == 0 and len(calls) == 1
        config = json.loads(out)["config"]
        assert config == {"command": command, "source": config["source"],
                          **({"depth": 2} if "depth" in dests else {}),
                          **{key: SET[key] for key in declared}}
        seen = reached.setdefault(command, set())
        for value in calls[0]:
            if isinstance(value, ReadTolerance):
                seen.update("tol" + name[3:] for name in value.read)
                assert (value.eps_exact, value.eps_rank) == (SET["tol_exact"], SET["tol_rank"])
            seen.update(key for key in ("grid", "seed") if value == SET[key])
        assert ("tol_exact" in declared) == ("tol_rank" in declared)
    for command, seen in reached.items():
        unread = (subcommands[command] & set(cli.CONFIG_OPTIONS)) - seen
        assert unread == {key for cmd, key in BENCHMARK_PINNED | TOLERANCE_PAIRED if cmd == command}
    # the commands without a config block declare no config option
    for command, dests in subcommands.items():
        if command not in reached:
            assert not dests & set(cli.CONFIG_OPTIONS)
