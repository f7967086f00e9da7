import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import patrm
from oracles import sum_eigenvalues_reference, trace_moment_reference
from patrm import __version__, limits, sampler, spectra
from patrm.algebra import enumerate_pair_matched_words, parse_monomial, word_from_text
from patrm.cli import EXIT_BUDGET, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from patrm.freeness import free_moment_prediction
from patrm.linkfns import InputDistribution, LinkKind
from patrm.reference_tables import ALL_ROWS
from test_limits import GOLDEN_ALPHA_ESTIMATES

GAUSS = InputDistribution.GAUSSIAN


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


def test_word_json_shape(capsys):
    code, out, _ = run(capsys, "words", "--q", "THTH")
    assert code == EXIT_OK
    entry = next(w for w in json.loads(out)["words"] if w["word"] == "abab")
    assert list(entry.items()) == [("word", "abab"), ("colors", "THTH"), ("indices", [1, 1, 1, 1]), ("catalan", False)]


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


# SSSSHH/ababcc at 2000 samples, seed 0, from its case polytopes' seed_sequence streams
_SSSSHH_GOLDEN_ROW = "SSSSHH,ababcc,1,1.0190000000000001,0.019000000000000128\r\n"


def test_tables_mc_golden_row(capsys):
    _, out, _ = run(capsys, "tables", "--method", "mc", "--samples", "2000")
    assert _SSSSHH_GOLDEN_ROW in out


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
        ("--kmax", "0", "unrecognized arguments: --kmax 0"),
        ("--kmax", "-1", "unrecognized arguments: --kmax -1"),
        ("--bins", "0", "unrecognized arguments: --bins 0"),
        ("--n", "1201", "matrix size 1201 exceeds cap 1200"),
    ],
    ids=["--kmax-0", "--kmax--1", "--bins-0", "--n-1201"],
)
def test_lsd_rejects_bad_kmax_and_bins(capsys, monkeypatch, flag, value, message):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking the arguments")

    monkeypatch.setattr(spectra, "sample_matrix", no_sampling)
    try:
        code = main(["lsd", "--a", "T", "--b", "H", "--n", "64", flag, value])
    except SystemExit as exc:  # the parser rejects an option lsd does not have
        code = exc.code
    out, err = capsys.readouterr()
    assert code == EXIT_USAGE
    assert out == "" and message in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["moments", "--q", "TT", "--n", "1201"], "matrix size 1201 exceeds cap 1200"),
        # R and S letters alone take the Fourier route, which draws first rows only
        (["moments", "--q", "RRSS", "--n", "1201"], "matrix size 1201 exceeds cap 1200"),
        (["lsd", "--a", "R", "--b", "S", "--n", "1201"], "matrix size 1201 exceeds cap 1200"),
        (["moments", "--q", "TT", "--n", "0"], "n must be >= 1"),
        (["moments", "--q", "RRSS", "--n", "0"], "n must be >= 1"),
        (["moments", "--q", "RRSS", "--n", "-2"], "n must be >= 1"),
        (["lsd", "--a", "R", "--b", "S", "--n", "0"], "n must be >= 1"),
    ],
    ids=[
        "moments-n-1201",
        "moments-RRSS-n-1201",
        "lsd-RS-n-1201",
        "moments-n-0",
        "moments-RRSS-n-0",
        "moments-RRSS-n--2",
        "lsd-RS-n-0",
    ],
)
def test_simulation_size_checked_before_any_work(capsys, monkeypatch, argv, message):
    def no_work(*args, **kwargs):
        raise AssertionError("sampled or computed a limit before checking the size")

    monkeypatch.setattr(sampler, "sample_matrix", no_work)
    monkeypatch.setattr(sampler, "_circulant_row", no_work)
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
        # charged before the first draw: moments reps x k x n^2 entries (k letters of --q), lsd reps x 2 x n^2
        pytest.param(["moments", "--q", "THTH", "--n", "10", "--reps", "1000000000000"], id="moments-reps"),
        pytest.param(
            ["moments", "--q", "SSSSSSSSSSSS", "--n", "50", "--reps", "3", "--budget", "100"], id="moments"
        ),
        pytest.param(
            ["lsd", "--a", "T", "--b", "H", "--n", "10", "--reps", "100000000", "--budget", "1000"], id="lsd"
        ),
    ],
)
def test_budget_exit_three(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BUDGET
    assert out == "" and "budget" in err
    if "exact" in argv:
        assert "exact integration needs more than" in err


def test_moments_limit_over_budget_prints_null(capsys):
    # 3 x 12 x 50^2 = 90000 entries fit 100000; the 10395 words x 12 letters of S^12 do not
    code, out, _ = run(capsys, "moments", "--q", "SSSSSSSSSSSS", "--n", "50", "--reps", "3", "--budget", "100000")
    assert code == EXIT_OK
    assert json.loads(out)["alpha_limit"] is None


def test_moments_charges_every_factor_of_its_word(capsys, monkeypatch):
    # one distinct letter, but 64 factors: 3 x 64 x 50^2 = 480000 entries exceed 200000
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before charging the draws")

    monkeypatch.setattr(sampler, "sample_matrix", no_sampling)
    code, out, err = run(capsys, "moments", "--q", "T" * 64, "--n", "50", "--reps", "3", "--budget", "200000")
    assert code == EXIT_BUDGET
    assert out == "" and "4.80e+05 matrix entries" in err


def test_fourier_word_is_charged_before_any_draw(capsys, monkeypatch):
    # the Fourier route fills no n x n matrix, but is charged as the dense one: 10 x 4 x 800^2
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before charging the draws")

    monkeypatch.setattr(sampler, "sample_matrix", no_sampling)
    monkeypatch.setattr(sampler, "_circulant_row", no_sampling)
    code, out, err = run(capsys, "moments", "--q", "S1S2S1S2", "--n", "800", "--reps", "10", "--budget", "1000000")
    assert code == EXIT_BUDGET
    assert out == "" and "2.56e+07 matrix entries" in err


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
# alpha --method mc --seed 21 at the default 10^6 samples and at 200000
_ALPHA_MC_GOLDENS = {
    "THTHTHTH": (
        ["alpha", "--q", "THTHTHTH", "--method", "mc"],
        '{"q":"THTHTHTH","alpha":2.5977079999999999,"stderr":0.0012122469953297472,"bound":1680,"words":9,',
    ),
    "SSSSSS": (
        ["alpha", "--q", "SSSSSS", "--method", "mc", "--samples", "200000"],
        '{"q":"SSSSSS","alpha":14.997875000000001,"stderr":0.010212945094186838,"bound":120,"words":15,',
    ),
}
# the stderr of tables --method mc --samples 20000 --seed 21
_TABLES_MC_GOLDEN_ERR = (
    "tables: |err| > 0.02 for (HHHSHS, aabcbc): 0.1714\n"
    "tables: |err| > 0.02 for (HHHSHS, abbcac): 0.1714\n"
)


@pytest.mark.parametrize("argv,payload", list(_ALPHA_MC_GOLDENS.values()), ids=list(_ALPHA_MC_GOLDENS))
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


@pytest.mark.parametrize("text", ["abacdcdb", "ababcdcd"])
def test_pcw_charges_the_dihedral_class_of_its_word(capsys, monkeypatch, text):
    # one T^8 class: its least member ababcdcd takes 40 integration branches,
    # abacdcdb on its own 129; pcw integrates the class, as tables and alpha do
    monkeypatch.setattr(limits, "_P_CACHE", {})
    code, out, err = run(capsys, "pcw", "--q", "TTTTTTTT", "--word", text, "--budget", "40")
    assert (code, err) == (EXIT_OK, "")
    payload = json.loads(out)
    assert (payload["word"], payload["exact"], payload["cases"]) == (text, "9/20", 16)
    monkeypatch.setattr(limits, "_P_CACHE", {})
    code, out, err = run(capsys, "pcw", "--q", "TTTTTTTT", "--word", text, "--budget", "39")
    assert code == EXIT_BUDGET
    assert out == "" and "exact integration needs more than 39 branches" in err


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


# traced in the Fourier basis; its dense reference agrees within 1e-12 relative
_RRSS_GOLDEN = (
    '{"q":"RRSS","n":64,"mean":0.87655597843539945,"sd":0.27485845966790512,"reps":3,'
    '"dist":"gaussian","alpha_limit":1,'
)


@pytest.mark.parametrize(
    "q,payload",
    [
        ("TT", '{"q":"TT","n":64,"mean":0.98961546010220358,"sd":0.16118766349636476,"reps":3,'
         '"dist":"gaussian","alpha_limit":1,'),
        # two half products: a letter buffer is reused between them
        ("W1T1W2T1", '{"q":"W1 T1 W2 T1","n":64,"mean":0.0030365248808913556,"sd":0.0031547655480643421,'
         '"reps":3,"dist":"gaussian","alpha_limit":0,'),
        ("RRSS", _RRSS_GOLDEN),
    ],
    ids=["TT", "W1T1W2T1", "RRSS"],
)
def test_moments_golden_bytes(capsys, q, payload):
    code, out, err = run(capsys, "moments", "--q", q, "--n", "64", "--reps", "3", "--seed", "21")
    assert (code, err) == (EXIT_OK, "")
    assert out == payload + f'"seed":21,"budget":5000000000,"version":"{__version__}","method":"simulation"}}\n'


def test_fourier_goldens_lie_near_the_dense_reference():
    # the goldens of the two Fourier routes, against dense products and eigensolves
    moments = json.loads(_RRSS_GOLDEN[:-1] + "}")
    traces = trace_moment_reference(parse_monomial("RRSS"), 64, GAUSS, 3, 21)
    assert moments["mean"] == pytest.approx(traces.mean(), rel=1e-12)
    assert moments["sd"] == pytest.approx(traces.std(ddof=1), rel=1e-12)

    stem = _GOLDEN / "lsd_RS_n64_reps2_seed21"
    report = json.loads(stem.with_suffix(".err").read_text()[:-1] + "}")
    rows = list(csv.reader(io.StringIO(stem.with_suffix(".csv").read_text())))[1:]
    eigs = sum_eigenvalues_reference(LinkKind.REVERSE_CIRCULANT, LinkKind.SYMMETRIC_CIRCULANT, 64, GAUSS, 2, 21)
    beta = [np.mean([(e**k).mean() for e in eigs]) for k in range(1, 7)]
    pooled = np.concatenate(eigs)
    centered = pooled - pooled.mean()
    skewness = (centered**3).mean() / (centered**2).mean() ** 1.5
    hist = spectra.esd(pooled)
    assert report["beta"] == pytest.approx(beta, rel=1e-12)
    assert report["skewness"] == pytest.approx(skewness, rel=1e-12)
    assert [int(row[2]) for row in rows] == hist.counts.tolist()
    for column, ref in ((0, hist.edges[:-1]), (1, hist.edges[1:]), (3, hist.density)):
        assert [float(row[column]) for row in rows] == pytest.approx(ref.tolist(), rel=1e-12)


def test_tables_mc_golden_bytes(capsys):
    code, out, err = run(capsys, "tables", "--method", "mc", "--samples", "20000", "--seed", "21")
    assert code == EXIT_NUMERIC
    assert out == (_GOLDEN / "tables_mc_samples20000_seed21.csv").read_bytes().decode()
    assert err == _TABLES_MC_GOLDEN_ERR


def test_monte_carlo_goldens_lie_near_the_exact_limits(monkeypatch):
    # every Monte Carlo golden within 6 standard errors of its exact rational,
    # so that a re-recorded golden cannot hide a wrong estimate; where a
    # golden prints no stderr, its estimate is recomputed for one
    def near(estimate: float, stderr: float, exact) -> bool:
        return abs(estimate - float(exact)) <= 6 * stderr

    for argv, payload in _ALPHA_MC_GOLDENS.values():
        report = json.loads(payload[:-1] + "}")
        assert near(report["alpha"], report["stderr"], limits.alpha(parse_monomial(argv[2]), "exact"))
    for mono, (value, stderr) in GOLDEN_ALPHA_ESTIMATES.items():
        assert near(value, stderr, limits.alpha(parse_monomial(mono), "exact")), mono

    # the |err| values that stderr prints to 4 decimals, against |2/3 - 1/2|
    printed = {
        tuple(line.split("(")[1].split(")")[0].split(", ")): float(line.rsplit(" ", 1)[1])
        for line in _TABLES_MC_GOLDEN_ERR.splitlines()
    }
    table = list(csv.reader(io.StringIO((_GOLDEN / "tables_mc_samples20000_seed21.csv").read_text())))[1:]
    runs = [(row, 20000, 21) for row in table] + [(next(csv.reader([_SSSSHH_GOLDEN_ROW])), 2000, 0)]
    for row, samples, seed in runs:
        w = word_from_text(row[1], parse_monomial(row[0]))
        est = limits.p_limit(w, "mc", samples=samples, seed=seed)
        assert est.value == float(row[3]), row
        assert near(est.value, est.stderr, limits.p_limit(w, "exact").value), row
        if (row[0], row[1]) in printed:
            assert abs(printed.pop((row[0], row[1])) - 1 / 6) <= 6 * est.stderr + 5e-5, row
    assert not printed

    # a sweep prediction sums products of block limits, each at least 0, so
    # it rises with each; its exact value must lie between the predictions
    # with every block 6 standard errors below and above its estimate
    def block_alpha(shift):
        def shifted(q, method, **kw):
            est = limits.alpha_estimate(q, method, **kw)
            return max(0.0, est.value + shift * est.stderr)

        return shifted

    sweep = list(csv.reader(io.StringIO((_GOLDEN / "sweep_WR_WT_len2to6_samples2000_seed21.csv").read_text())))[1:]
    for mono, value, _ in sweep:
        q = parse_monomial(mono)
        est = limits.alpha_estimate(q, "mc", samples=2000, seed=21)
        assert est.value == float(value), mono
        assert near(est.value, est.stderr, limits.alpha(q, "exact")), mono
    for mono, _, prediction in sweep:
        q = parse_monomial(mono)
        exact = free_moment_prediction(q, method="exact")
        with monkeypatch.context() as patch:
            bounds = []
            for shift in (-6, 6):
                patch.setattr(limits, "alpha", block_alpha(shift))
                bounds.append(free_moment_prediction(q, samples=2000, seed=21))
        assert bounds[0] <= float(exact) <= bounds[1], (mono, prediction)


@pytest.mark.parametrize(
    "argv,code,loads",
    [
        (("alpha", "--q", "TTTTTTTT"), EXIT_OK, False),
        (("pcw", "--q", "TTTTHHHH", "--word", "abbacddc", "--method", "exact"), EXIT_OK, False),
        (("tables", "--method", "exact"), EXIT_NUMERIC, False),
        (("words", "--q", "THTH"), EXIT_OK, False),
        # the Monte Carlo route does load both, so the probe can tell
        (("alpha", "--q", "THTH", "--method", "mc", "--samples", "1000"), EXIT_OK, True),
    ],
    ids=["alpha", "pcw", "tables", "words", "alpha-mc"],
)
def test_exact_commands_run_without_numpy(argv, code, loads):
    # nor hashlib, which loads OpenSSL: no patrm module imports it, and only
    # numpy.random does, so a Monte Carlo run loads both
    # a fresh interpreter, so no earlier import in this process counts
    probe = (
        "import contextlib, io, sys\n"
        "from patrm.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = main({list(argv)!r})\n"
        "print(code, 'numpy' in sys.modules, 'hashlib' in sys.modules)\n"
    )
    src = str(Path(patrm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split() == [str(code), str(loads), str(loads)]
