from onoffchain import core, sim, verify


def _log():
    cfg = core.SystemConfig(1, 3, core.RateSchedule.explicit([1.0, 2.0, 0.8]),
                            core.InputModel.exponential(1.5))
    return sim.simulate(cfg, sim.RandomnessPlan(3, 0), sim.StopRule.horizon(8.0))


def test_structural_failure_passes_simulated_log():
    assert verify._structural_failure(_log()) is None


def test_structural_failure_names_tampered_log():
    log = _log()
    first_rec = next(i for i, e in enumerate(log.events) if e[0] == core.RECOVERY)
    log.events.insert(first_rec, log.events[first_rec])
    failure = verify._structural_failure(log)
    assert failure is not None and failure.startswith("log invariant: ")
