from sdlab.verify import check_coxeter_tau_action, check_serre_duality_modules, run_all


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

    assert check_coxeter_tau_action(("A3",)).passed
    # a translate that returns its input is wrong on every Dynkin entry
    monkeypatch.setattr(sdlab.reps, "ar_translate", lambda m, direction="forward": m)
    result = check_coxeter_tau_action(("A3",))
    assert not result.passed
    assert result.detail.startswith("0/")


def test_serre_duality_check_solves_ext_on_representations(monkeypatch):
    import sdlab.reps

    assert check_serre_duality_modules(("A3",)).passed
    # an Ext that is one too large on every pair contradicts Serre duality
    real = sdlab.reps.ext1_dim
    monkeypatch.setattr(sdlab.reps, "ext1_dim", lambda m, n: real(m, n) + 1)
    result = check_serre_duality_modules(("A3",))
    assert not result.passed
    assert result.detail.startswith("0/")
