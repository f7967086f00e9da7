import csv
import io
import json

import pytest

from patrm import __version__, limits, spectra
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
    code, out, _ = run(capsys, "pcw", "--q", "THTH", "--word", "abab", "--samples", "200000")
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
    code, out, _ = run(capsys, "alpha", "--q", q, "--samples", "1000")
    assert code == EXIT_OK
    words = json.loads(out)["words"]
    assert words == count == len(enumerate_pair_matched_words(parse_monomial(q)))


def test_tables_flags_known_discrepancies(capsys):
    code, out, err = run(capsys, "tables", "--samples", "100000")
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


def test_tables_exact_prints_true_volumes(capsys):
    code, out, err = run(capsys, "tables", "--method", "exact")
    assert code == EXIT_NUMERIC  # the two defective published cells
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["p_computed"] for row in rows] == [format(float(ref.p_true), ".17g") for ref in ALL_ROWS]
    flagged = {line.split("(")[1].split(")")[0] for line in err.strip().splitlines()}
    assert flagged == {"HHHSHS, aabcbc", "HHHSHS, abbcac"}


def test_moments_embeds_config(capsys):
    code, out, _ = run(
        capsys, "moments", "--q", "TT", "--n", "64", "--reps", "10", "--seed", "9",
        "--samples", "20000",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["seed"] == 9
    assert payload["n"] == 64
    assert payload["alpha_limit"] == pytest.approx(1.0)
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


def test_freeness_command(capsys):
    code, out, _ = run(capsys, "freeness", "--q", "WWHH", "--samples", "100000")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["free_within_tol"] is True
    assert payload["alpha"] == pytest.approx(1.0, abs=0.01)
    assert payload["free_prediction"] == pytest.approx(1.0, abs=0.01)


def test_determinism_byte_identical(capsys):
    _, out1, _ = run(capsys, "pcw", "--q", "THTH", "--word", "abab", "--samples", "50000", "--seed", "5")
    _, out2, _ = run(capsys, "pcw", "--q", "THTH", "--word", "abab", "--samples", "50000", "--seed", "5")
    assert out1 == out2
    _, out3, _ = run(capsys, "pcw", "--q", "THTH", "--word", "abab", "--samples", "50000", "--seed", "6")
    assert out3 != out1


def test_pcw_and_alpha_agree_on_a_single_word_monomial(capsys):
    # abab is the only pair-matched word of T1 T2 T1 T2, so its volume is
    # the monomial's limit, from either command
    _, pcw_out, _ = run(capsys, "pcw", "--q", "T1 T2 T1 T2", "--word", "abab", "--samples", "20000")
    _, alpha_out, _ = run(capsys, "alpha", "--q", "T1T2T1T2", "--samples", "20000")
    pcw, alpha = json.loads(pcw_out), json.loads(alpha_out)
    assert alpha["words"] == 1
    assert (pcw["p"], pcw["stderr"]) == (alpha["alpha"], alpha["stderr"])


def test_negative_seed_aliases_mod_2_64(capsys):
    argv = ("alpha", "--q", "THTH", "--samples", "2000")
    neg = run(capsys, *argv, "--seed", "-1")
    big = run(capsys, *argv, "--seed", str(2**64 - 1))
    assert neg[0] == big[0] == EXIT_OK
    assert neg[2] == big[2]
    neg_payload, big_payload = json.loads(neg[1]), json.loads(big[1])
    assert (neg_payload.pop("seed"), big_payload.pop("seed")) == (-1, 2**64 - 1)
    assert neg_payload == big_payload


def test_json_roundtrip_17_digits(capsys):
    _, out, _ = run(capsys, "pcw", "--q", "THTH", "--word", "abab", "--samples", "50000")
    payload = json.loads(out)
    # every float re-serializes to the exact same double
    text = format(payload["p"], ".17g")
    assert float(text) == payload["p"]


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
        # an exact count over budget fails; it does not fall back to mc
        pytest.param(["alpha", "--q", "TTTT", "--method", "exact", "--budget", "1000"], id="alpha-exact"),
        pytest.param(
            ["pcw", "--q", "TTTT", "--word", "abab", "--method", "exact", "--budget", "1000"], id="pcw-exact"
        ),
    ],
)
def test_budget_exit_three(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BUDGET
    assert out == "" and "budget" in err


def test_case_product_budget_exit_three(capsys):
    # 15 words x 6 letters = 90 passes the word check; 6^3 = 216 cases does not
    code, out, err = run(capsys, "alpha", "--q", "SSSSSS", "--budget", "100")
    assert code == EXIT_BUDGET
    assert out == "" and "216 affine cases" in err


def test_failed_exact_check_exits_two(capsys, monkeypatch):
    # counts that are no polynomial in n fail the exact route's fit check
    monkeypatch.setattr(limits, "count_circuits_exact", lambda w, n, *, budget: 2**n)
    code, out, err = run(capsys, "pcw", "--q", "THTH", "--word", "abab", "--method", "exact")
    assert code == EXIT_NUMERIC
    assert out == "" and "numerical check failed" in err


def test_non_finite_report_exits_two(capsys):
    code, out, err = run(capsys, "freeness", "--q", "WWHH", "--tol", "nan", "--samples", "1000")
    assert code == EXIT_NUMERIC
    assert out == "" and "non-finite" in err
