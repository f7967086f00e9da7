import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import patrm
from patrm import __version__, limits, sampler, spectra
from patrm.algebra import enumerate_pair_matched_words, parse_monomial
from patrm.cli import EXIT_BUDGET, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from patrm.reference_tables import ALL_ROWS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_words_catalan_flags(capsys):
    code, out, _ = run(capsys, "words", "--q", "TTTTHH")
    assert code == EXIT_OK
    payload = json.loads(out)
    flags = {w["word"]: w["catalan"] for w in payload["words"]}
    assert flags == {"aabbcc": True, "abbacc": True, "ababcc": False}
    assert payload["seed"] == 0 and payload["version"] == __version__


def test_words_empty_cases(capsys):
    code, out, _ = run(capsys, "words", "--q", "THT")
    assert code == EXIT_OK and json.loads(out)["words"] == []
    code, out, _ = run(capsys, "words", "--q", "W1T1W2T1")
    assert code == EXIT_OK and json.loads(out)["words"] == []


def test_pcw_mc(capsys):
    code, out, _ = run(capsys, "pcw", "--q", "THTH", "--word", "abab", "--method", "mc", "--samples", "200000")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["p"] == pytest.approx(2 / 3, abs=0.01)
    assert payload["cases"] == 2
    assert payload["catalan"] is False
    assert payload["method"] == "mc"


def test_alpha_semicircle(capsys):
    code, out, _ = run(capsys, "alpha", "--q", "WWWW")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["alpha"] == pytest.approx(2.0)
    assert payload["bound"] == pytest.approx(3.0)


@pytest.mark.parametrize("q,count", [("TTTT", 3), ("W1T1W2T1", 0), ("THTHT", 0)])
def test_alpha_word_count_is_exact(capsys, q, count):
    code, out, _ = run(capsys, "alpha", "--q", q, "--method", "mc", "--samples", "1000")
    assert code == EXIT_OK
    words = json.loads(out)["words"]
    assert words == count == len(enumerate_pair_matched_words(parse_monomial(q)))


def test_tables_flags_known_discrepancies(capsys):
    code, out, err = run(capsys, "tables", "--method", "mc", "--samples", "100000")
    assert code == EXIT_NUMERIC  # the two defective published cells
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == len(ALL_ROWS)
    assert set(rows[0]) == {"monomial", "word", "p_paper", "p_computed", "abs_err"}
    flagged = {line.split("(")[1].split(")")[0] for line in err.strip().splitlines()}
    assert flagged == {"HHHSHS, aabcbc", "HHHSHS, abbcac"}
    for row in rows:
        if row["monomial"] == "HHHSHS" and row["word"] in ("aabcbc", "abbcac"):
            continue
        assert float(row["abs_err"]) <= 0.02


def test_tables_low_samples_flags_only_defective_rows(capsys):
    # at 2000 samples a fixed 0.02 tolerance is ~2 standard errors of a row
    code, _, err = run(capsys, "tables", "--method", "mc", "--samples", "2000")
    assert code == EXIT_NUMERIC
    lines = err.strip().splitlines()
    assert all(line.startswith("tables: |err| >") for line in lines)
    flagged = {line.split("(")[1].split(")")[0] for line in lines}
    assert flagged == {"HHHSHS, aabcbc", "HHHSHS, abbcac"}


def test_tables_mc_golden_row(capsys):
    # SSSSHH/ababcc as the per-case resolver gave it at 2000 samples, seed 0
    _, out, _ = run(capsys, "tables", "--method", "mc", "--samples", "2000")
    assert "SSSSHH,ababcc,1,1.0065,0.0064999999999999503\r\n" in out


def test_tables_exact_prints_true_volumes(capsys):
    code, out, err = run(capsys, "tables", "--method", "exact")
    assert code == EXIT_NUMERIC  # the two defective published cells
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["p_computed"] for row in rows] == [format(float(ref.p_true), ".17g") for ref in ALL_ROWS]
    flagged = {line.split("(")[1].split(")")[0] for line in err.strip().splitlines()}
    assert flagged == {"HHHSHS, aabcbc", "HHHSHS, abbcac"}


def test_tables_exact_flags_by_rational_inequality(capsys, monkeypatch):
    code, _, err = run(capsys, "tables", "--method", "exact")
    assert code == EXIT_NUMERIC
    assert err == (
        "tables: |err| > 0 for (HHHSHS, aabcbc): 0.1667\n"
        "tables: |err| > 0 for (HHHSHS, abbcac): 0.1667\n"
    )
    # an exact volume off by far less than the Monte Carlo tolerance is still flagged
    rows = iter(ALL_ROWS)

    def near_published(w, method, **kwargs):
        # tables asks for the rows' volumes in table order
        return limits.VolumeEstimate(next(rows).p_published + Fraction(1, 10**6), 0.0)

    monkeypatch.setattr(limits, "p_limit_cached", near_published)
    code, _, err = run(capsys, "tables", "--method", "exact")
    assert code == EXIT_NUMERIC
    assert len(err.splitlines()) == len(ALL_ROWS)


def test_moments_embeds_config(capsys):
    code, out, _ = run(
        capsys, "moments", "--q", "TT", "--n", "64", "--reps", "10", "--seed", "9",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["seed"] == 9
    assert payload["n"] == 64
    assert payload["alpha_limit"] == 1.0
    assert payload["budget"] > 0


def test_lsd_writes_csv_and_sidecar(tmp_path, capsys):
    out_path = tmp_path / "hist.csv"
    code, out, _ = run(
        capsys, "lsd", "--a", "T", "--b", "H", "--n", "96", "--reps", "3",
        "--out", str(out_path),
    )
    assert code == EXIT_OK
    rows = list(csv.DictReader(out_path.open()))
    assert rows and set(rows[0]) == {"bin_left", "bin_right", "count", "density"}
    mass = sum(
        float(r["density"]) * (float(r["bin_right"]) - float(r["bin_left"])) for r in rows
    )
    assert mass == pytest.approx(1.0, abs=1e-9)
    sidecar = json.loads((tmp_path / "hist.csv.json").read_text())
    assert sidecar["a"] == "T" and sidecar["b"] == "H"
    assert sidecar["beta"][1] == pytest.approx(2.0, abs=0.4)


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--kmax", "0", "kmax must be >= 1"),
        ("--kmax", "-1", "kmax must be >= 1"),
        ("--bins", "0", "bins must be >= 1"),
        ("--n", "1201", "matrix size 1201 exceeds cap 1200"),
    ],
    ids=["--kmax-0", "--kmax--1", "--bins-0", "--n-1201"],
)
def test_lsd_rejects_bad_kmax_and_bins(capsys, monkeypatch, flag, value, message):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking the arguments")

    monkeypatch.setattr(spectra, "sample_matrix", no_sampling)
    code, out, err = run(capsys, "lsd", "--a", "T", "--b", "H", "--n", "64", flag, value)
    assert code == EXIT_USAGE
    assert out == "" and message in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["moments", "--q", "TT", "--n", "1201"], "matrix size 1201 exceeds cap 1200"),
    ],
    ids=["moments-n-1201"],
)
def test_simulation_size_checked_before_any_work(capsys, monkeypatch, argv, message):
    def no_work(*args, **kwargs):
        raise AssertionError("sampled or computed a limit before checking the size")

    monkeypatch.setattr(sampler, "sample_matrix", no_work)
    monkeypatch.setattr(limits, "alpha_estimate", no_work)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == "" and message in err


def test_freeness_command(capsys):
    code, out, _ = run(capsys, "freeness", "--q", "WWHH")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["free"] is True
    assert payload["alpha"] == payload["free_prediction"] == 1.0
    assert payload["alpha_exact"] == payload["free_prediction_exact"] == "1"
    assert "deviation" not in payload and payload["method"] == "exact"


def test_determinism_byte_identical(capsys):
    argv = ("pcw", "--q", "THTH", "--word", "abab", "--method", "mc", "--samples", "50000")
    _, out1, _ = run(capsys, *argv, "--seed", "5")
    _, out2, _ = run(capsys, *argv, "--seed", "5")
    assert out1 == out2
    _, out3, _ = run(capsys, *argv, "--seed", "6")
    assert out3 != out1


def test_pcw_and_alpha_agree_on_a_single_word_monomial(capsys):
    # abab is the only pair-matched word of T1 T2 T1 T2, so its volume is
    # the monomial's limit, from either command
    _, pcw_out, _ = run(capsys, "pcw", "--q", "T1 T2 T1 T2", "--word", "abab", "--method", "mc", "--samples", "20000")
    _, alpha_out, _ = run(capsys, "alpha", "--q", "T1T2T1T2", "--method", "mc", "--samples", "20000")
    pcw, alpha = json.loads(pcw_out), json.loads(alpha_out)
    assert alpha["words"] == 1
    assert (pcw["p"], pcw["stderr"]) == (alpha["alpha"], alpha["stderr"])


def test_negative_seed_aliases_mod_2_64(capsys):
    argv = ("alpha", "--q", "THTH", "--method", "mc", "--samples", "2000")
    neg = run(capsys, *argv, "--seed", "-1")
    big = run(capsys, *argv, "--seed", str(2**64 - 1))
    assert neg[0] == big[0] == EXIT_OK
    assert neg[2] == big[2]
    neg_payload, big_payload = json.loads(neg[1]), json.loads(big[1])
    assert (neg_payload.pop("seed"), big_payload.pop("seed")) == (-1, 2**64 - 1)
    assert neg_payload == big_payload


def test_json_roundtrip_17_digits(capsys):
    _, out, _ = run(capsys, "pcw", "--q", "THTH", "--word", "abab", "--method", "mc", "--samples", "50000")
    payload = json.loads(out)
    # every float re-serializes to the exact same double
    text = format(payload["p"], ".17g")
    assert float(text) == payload["p"]


@pytest.mark.parametrize(
    "argv",
    [
        ["pcw", "--q", "WSWS", "--word", "abab"],
        ["pcw", "--q", "TTTT", "--word", "abba"],
        ["pcw", "--q", "THTH", "--word", "abab", "--method", "exact"],
        ["alpha", "--q", "THT"],
        ["tables"],
    ],
    ids=lambda a: "-".join(a[:2]),
)
@pytest.mark.parametrize("samples", ["0", "-5"])
def test_nonpositive_samples_exit_one(capsys, argv, samples):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--samples", samples])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "--samples: must be >= 1" in captured.err


def test_non_integer_samples_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["alpha", "--q", "TT", "--samples", "abc"])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "argument --samples: expected an integer, got 'abc'" in captured.err
    assert "_positive_int" not in captured.err


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "alpha", "--q", "XY")[0] == EXIT_USAGE
    assert run(capsys, "pcw", "--q", "THTH", "--word", "ab")[0] == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["nope"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["alpha"])  # missing --q
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["alpha", "--q", "W" * 30, "--budget", "1000"], id="alpha"),
        pytest.param(["words", "--q", "W" * 30, "--budget", "1000"], id="words"),
        # an exact integration over budget fails; it does not fall back to mc.
        # 15 words x 6 letters and 27 cases fit 100; abcabc's 112 branches do not
        pytest.param(["alpha", "--q", "RRRRRR", "--method", "exact", "--budget", "100"], id="alpha-exact"),
        # 4 cases fit 10; abab's 12 branches do not
        pytest.param(
            ["pcw", "--q", "TTTT", "--word", "abab", "--method", "exact", "--budget", "10"], id="pcw-exact"
        ),
        pytest.param(["freeness", "--q", "WWTTTT", "--budget", "5"], id="freeness"),
    ],
)
def test_budget_exit_three(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BUDGET
    assert out == "" and "budget" in err
    if "exact" in argv:
        assert "exact integration needs more than" in err


def test_case_product_budget_exit_three(capsys):
    # 15 words x 6 letters = 90 passes the word check; 6^3 = 216 cases does not
    code, out, err = run(capsys, "alpha", "--q", "SSSSSS", "--budget", "100")
    assert code == EXIT_BUDGET
    assert out == "" and "216 affine cases" in err


def test_non_finite_report_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(limits, "alpha_bound", lambda q: float("nan"))
    code, out, err = run(capsys, "alpha", "--q", "THTH")
    assert code == EXIT_NUMERIC
    assert out == "" and "non-finite" in err


def test_lsd_out_into_missing_directory_exits_one(tmp_path, capsys):
    out_path = tmp_path / "missing" / "h.csv"
    code, out, err = run(capsys, "lsd", "--a", "T", "--b", "H", "--n", "32", "--reps", "1", "--out", str(out_path))
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("patrm: error: ") and "No such file or directory" in err


_META = ["seed", "budget", "version"]


@pytest.mark.parametrize(
    "argv,keys",
    [
        pytest.param(["words", "--q", "TTTTHH"], ["q", "words", "count", *_META], id="words"),
        pytest.param(
            ["pcw", "--q", "THTH", "--word", "abab", "--method", "mc", "--samples", "1000"],
            ["monomial", "word", "catalan", "cases", "p", "stderr", "method", *_META],
            id="pcw",
        ),
        pytest.param(
            ["alpha", "--q", "THTH", "--method", "mc", "--samples", "1000"],
            ["q", "alpha", "stderr", "bound", "words", "method", *_META],
            id="alpha",
        ),
        pytest.param(
            ["pcw", "--q", "THTH", "--word", "abab"],
            ["monomial", "word", "catalan", "cases", "p", "exact", "stderr", "method", *_META],
            id="pcw-exact",
        ),
        pytest.param(
            ["alpha", "--q", "THTH"],
            ["q", "alpha", "exact", "stderr", "bound", "words", "method", *_META],
            id="alpha-exact",
        ),
        pytest.param(
            ["moments", "--q", "TT", "--n", "16", "--reps", "2"],
            ["q", "n", "mean", "sd", "reps", "dist", "alpha_limit", *_META, "method"],
            id="moments",
        ),
        pytest.param(
            ["freeness", "--q", "WWHH"],
            [
                "q", "alpha", "alpha_exact", "free_prediction", "free_prediction_exact", "free",
                *_META, "method",
            ],
            id="freeness",
        ),
    ],
)
def test_report_key_order(capsys, argv, keys):
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert list(json.loads(out)) == keys


def test_lsd_sidecar_key_order(capsys):
    code, _, err = run(capsys, "lsd", "--a", "T", "--b", "H", "--n", "32", "--reps", "1")
    assert code == EXIT_OK
    assert list(json.loads(err)) == [
        "a", "b", "n", "reps", "seed", "beta", "skewness", "symmetric", "odd_moment_max",
        "growth", "growth_nondecreasing", "budget", "version", "method",
    ]


_COMMANDS = ["words", "tables", "pcw", "alpha", "moments", "lsd", "freeness"]


@pytest.mark.parametrize("command", _COMMANDS)
def test_subcommand_help_exits_zero(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: patrm {command} ")


def test_samples_only_beside_method(capsys):
    # --samples sizes the Monte Carlo route, which only --method mc selects
    with_samples = set()
    for command in _COMMANDS:
        with pytest.raises(SystemExit):
            main([command, "-h"])
        usage = capsys.readouterr().out
        if "[--samples SAMPLES]" in usage:
            assert "[--method {mc,exact}]" in usage, command
            with_samples.add(command)
    assert with_samples == {"tables", "pcw", "alpha"}


@pytest.mark.parametrize(
    "argv,rejected",
    [
        (["moments", "--q", "TT", "--n", "16"], ["--samples", "10"]),
        (["freeness", "--q", "WWTT"], ["--samples", "10"]),
        (["freeness", "--q", "WWTT"], ["--tol", "0.1"]),
        # freeness simulates nothing; moments --n N --reps R gives the simulated moment
        (["freeness", "--q", "WWTT"], ["--n", "64", "--reps", "2"]),
        (["freeness", "--q", "WWTT"], ["--reps", "5"]),
        (["freeness", "--q", "WWTT"], ["--dist", "gaussian"]),
    ],
    ids=["moments-samples", "freeness-samples", "freeness-tol", "freeness-n-reps", "freeness-reps", "freeness-dist"],
)
def test_exact_limit_commands_reject_monte_carlo_options(capsys, monkeypatch, argv, rejected):
    def no_limit(*args, **kwargs):
        raise AssertionError("computed a limit before rejecting the options")

    monkeypatch.setattr(limits, "alpha", no_limit)
    with pytest.raises(SystemExit) as exc:
        main([*argv, *rejected])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and f"unrecognized arguments: {' '.join(rejected)}" in captured.err


@pytest.mark.parametrize("budget", ["0", "-1"])
@pytest.mark.parametrize("command", [["alpha", "--q", "WWTT"], ["words", "--q", "WWTT"], ["tables"]])
def test_budget_below_one_exits_one(capsys, command, budget):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--budget", budget])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and f"--budget: must be >= 1, got {budget}" in captured.err


_GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "argv,payload",
    [
        (
            ["alpha", "--q", "THTHTHTH", "--method", "mc"],
            '{"q":"THTHTHTH","alpha":2.600921,"stderr":0.0012124982352288188,"bound":1680,"words":9,',
        ),
        (
            ["alpha", "--q", "SSSSSS", "--method", "mc", "--samples", "200000"],
            '{"q":"SSSSSS","alpha":15.000609999999998,"stderr":0.0054016749720109964,"bound":120,"words":15,',
        ),
    ],
    ids=["THTHTHTH", "SSSSSS"],
)
def test_alpha_mc_golden_bytes(capsys, argv, payload):
    code, out, err = run(capsys, *argv, "--seed", "21")
    assert (code, err) == (EXIT_OK, "")
    assert out == payload + f'"method":"mc","seed":21,"budget":5000000000,"version":"{__version__}"}}\n'


@pytest.mark.parametrize(
    "argv,payload",
    [
        # the default method is exact: the float is the rational's correct rounding
        (
            ["alpha", "--q", "THTHTHTH"],
            '{"q":"THTHTHTH","alpha":2.6000000000000001,"exact":"13/5","stderr":0,"bound":1680,"words":9,',
        ),
        (
            ["alpha", "--q", "TTTTTTTT", "--method", "exact"],
            '{"q":"TTTTTTTT","alpha":60.533333333333331,"exact":"908/15","stderr":0,"bound":1680,"words":105,',
        ),
    ],
    ids=["THTHTHTH", "TTTTTTTT"],
)
def test_alpha_exact_golden_bytes(capsys, argv, payload):
    code, out, err = run(capsys, *argv, "--seed", "21")
    assert (code, err) == (EXIT_OK, "")
    assert out == payload + f'"method":"exact","seed":21,"budget":5000000000,"version":"{__version__}"}}\n'


def test_pcw_exact_reports_the_rational(capsys):
    code, out, _ = run(capsys, "pcw", "--q", "THTH", "--word", "abab")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert (payload["p"], payload["exact"], payload["stderr"]) == (2 / 3, "2/3", 0)
    assert payload["method"] == "exact"


@pytest.mark.parametrize("a,b", [("T", "H"), ("R", "S"), ("W", "S")])
def test_lsd_golden_bytes(capsys, a, b):
    # stdout is the histogram CSV; the .err file is the stderr report up to its version field
    code, out, err = run(capsys, "lsd", "--a", a, "--b", b, "--n", "64", "--reps", "2", "--seed", "21")
    stem = _GOLDEN / f"lsd_{a}{b}_n64_reps2_seed21"
    assert code == EXIT_OK
    assert out == stem.with_suffix(".csv").read_bytes().decode()
    assert err == stem.with_suffix(".err").read_bytes().decode() + (
        f'"version":"{__version__}","method":"simulation"}}\n'
    )


def test_moments_golden_bytes(capsys):
    code, out, err = run(capsys, "moments", "--q", "TT", "--n", "64", "--reps", "3", "--seed", "21")
    assert (code, err) == (EXIT_OK, "")
    assert out == (
        '{"q":"TT","n":64,"mean":0.98961546010220358,"sd":0.16118766349636476,"reps":3,'
        '"dist":"gaussian","alpha_limit":1,"seed":21,"budget":5000000000,'
        f'"version":"{__version__}","method":"simulation"}}\n'
    )


def test_tables_mc_golden_bytes(capsys):
    code, out, err = run(capsys, "tables", "--method", "mc", "--samples", "20000", "--seed", "21")
    assert code == EXIT_NUMERIC
    assert out == (_GOLDEN / "tables_mc_samples20000_seed21.csv").read_bytes().decode()
    assert err == (
        "tables: |err| > 0.02 for (HHHSHS, aabcbc): 0.1695\n"
        "tables: |err| > 0.02 for (HHHSHS, abbcac): 0.1707\n"
    )


@pytest.mark.parametrize(
    "argv,code,loads_numpy",
    [
        (("alpha", "--q", "TTTTTTTT"), EXIT_OK, False),
        (("pcw", "--q", "TTTTHHHH", "--word", "abbacddc", "--method", "exact"), EXIT_OK, False),
        (("tables", "--method", "exact"), EXIT_NUMERIC, False),
        (("words", "--q", "THTH"), EXIT_OK, False),
        # the Monte Carlo route does load it, so the probe can tell
        (("alpha", "--q", "THTH", "--method", "mc", "--samples", "1000"), EXIT_OK, True),
    ],
    ids=["alpha", "pcw", "tables", "words", "alpha-mc"],
)
def test_exact_commands_run_without_numpy(argv, code, loads_numpy):
    # a fresh interpreter, so no earlier import in this process counts
    probe = (
        "import contextlib, io, sys\n"
        "from patrm.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = main({list(argv)!r})\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    src = str(Path(patrm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split() == [str(code), str(loads_numpy)]
