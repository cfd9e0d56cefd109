import json

import pytest

import sdlab.verify
from sdlab import DisconnectedQuiver, HeartMismatch, ParseError, classify_dynkin, parse_quiver
from sdlab.cli import main
from sdlab.stability import GepnerReport
from sdlab.verify import (
    check_coxeter_tau_action,
    check_dynkin_periodicity,
    check_exceptional_collections,
    check_gepner_points,
    check_serre_duality_modules,
    run_all,
)

LINEAR_A4 = "vertices:4; arrows:1->2,2->3,3->4"  # not bipartite: no Gepner point in mod kQ
PATH_AND_POINT = "vertices:3; arrows:1->2"  # disconnected


def _dynkin(name):
    q = parse_quiver(name)
    return [(name, q, classify_dynkin(q))]


def test_battery_passes_on_small_configuration():
    summary = run_all(quivers=("A2",), samples=5, seed=1)
    assert summary.all_passed
    assert summary.worst_margin > 0
    names = [r.name for r in summary.results]
    assert len(names) == len(set(names))
    assert len(names) >= 15
    for r in summary.results:
        assert r.passed
        assert isinstance(r.detail, str) and r.detail


def test_battery_is_deterministic():
    a = run_all(quivers=("A2", "A3"), samples=8, seed=77)
    b = run_all(quivers=("A2", "A3"), samples=8, seed=77)
    assert [(r.name, r.margin) for r in a.results] == [
        (r.name, r.margin) for r in b.results
    ]


def test_coxeter_tau_action_checks_against_reflection_functors(monkeypatch):
    import sdlab.reps

    assert check_coxeter_tau_action(_dynkin("A3")).passed
    # a translate that returns its input is wrong on every Dynkin entry
    monkeypatch.setattr(sdlab.reps, "ar_translate", lambda m, direction="forward": m)
    result = check_coxeter_tau_action(_dynkin("A3"))
    assert not result.passed
    assert result.detail.startswith("0/")


def test_serre_duality_check_solves_ext_on_representations(monkeypatch):
    import sdlab.reps

    assert check_serre_duality_modules(_dynkin("A3")).passed
    # an Ext that is one too large on every pair contradicts Serre duality
    real = sdlab.reps.ext1_dim
    monkeypatch.setattr(sdlab.reps, "ext1_dim", lambda m, n: real(m, n) + 1)
    result = check_serre_duality_modules(_dynkin("A3"))
    assert not result.passed
    assert result.detail.startswith("0/")


def test_run_all_builds_each_gepner_point_once(monkeypatch):
    real = sdlab.verify.gepner_construct
    built = []

    def counting(q):
        built.append(q.text())
        return real(q)

    monkeypatch.setattr(sdlab.verify, "gepner_construct", counting)
    run_all(quivers=("A2", "A3"), samples=5, seed=1)
    assert len(built) == 2


@pytest.mark.parametrize(
    "quivers, error",
    [
        ((LINEAR_A4, PATH_AND_POINT, "2->3"), ParseError),
        ((PATH_AND_POINT, "2->3"), ParseError),
        ((LINEAR_A4, PATH_AND_POINT), DisconnectedQuiver),
        (("A2", LINEAR_A4), HeartMismatch),
    ],
    ids=["parse", "parse-cli", "disconnected", "heart"],
)
def test_verify_error_precedence(capsys, quivers, error):
    with pytest.raises(error):
        run_all(quivers=quivers, samples=5, seed=1)
    if not any("," in name for name in quivers):
        # the CLI splits --quivers on commas, so only comma-free names reach it
        code = main(["verify", "--quivers", ",".join(quivers)])
        captured = capsys.readouterr()
        assert code == (2 if error is ParseError else 3)
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["type"] == error.__name__


def test_a1_jitter_is_the_c_action():
    # on A1 every jitter rescales the single charge, so gepner_check is
    # right to accept it
    summary = run_all(quivers=("A1",), samples=50, seed=0)
    assert summary.all_passed


def test_accepted_jitter_off_the_c_action_fails(monkeypatch):
    monkeypatch.setattr(
        sdlab.verify, "gepner_check",
        lambda sigma, mu: GepnerReport(mu=mu, charge_match=True, slicing_match=True),
    )
    name, q, dyn = _dynkin("A3")[0]
    result = check_gepner_points([(name, q, dyn, sdlab.verify.gepner_construct(q))], 10, 1)
    assert not result.passed
    assert "A3: jitter 0 accepted" in result.detail


def test_periodicity_row_steps_serre_by_hand(monkeypatch):
    # serre_apply reads powers off the period S^h G = G[h-2], so the row
    # that checks the period must step S itself
    def no_apply(*args):
        raise AssertionError("serre_apply")

    monkeypatch.setattr(sdlab.verify, "serre_apply", no_apply)
    dynkin = [row for name in ("A4", "D6", "E6", "E7", "E8") for row in _dynkin(name)]
    good = check_dynkin_periodicity(dynkin)
    assert good.passed and good.detail == "failures: none"
    name, q, dyn = dynkin[-1]
    bad = check_dynkin_periodicity([(name, q, dyn._replace(coxeter_number=dyn.coxeter_number + 1))])
    assert not bad.passed and bad.detail == "failures: ['E8']"


def test_collection_check_fails_on_a_repeated_or_swapped_object(monkeypatch):
    # a repeated object has chi 1 below the diagonal; swapping two
    # neighbours joined by a map moves its chi below the diagonal
    name, q, dyn = _dynkin("A3")[0]
    sigma = sdlab.verify.gepner_construct(q)
    coll = sdlab.verify.extract_exceptional_collection(sigma)
    rows = sdlab.verify.catalog_for(q).chi_rows()
    i = next(i for i in range(len(coll) - 1) if rows[coll[i][0]][coll[i + 1][0]])
    swapped = coll[:i] + [coll[i + 1], coll[i]] + coll[i + 2:]
    for bad in ([coll[0]] + coll[:-1], swapped):
        monkeypatch.setattr(sdlab.verify, "extract_exceptional_collection", lambda s, c=bad: list(c))
        result = check_exceptional_collections([(name, q, dyn, sigma)])
        assert not result.passed
        assert "A3: not unitriangular" in result.detail or "A3: diagonal" in result.detail
