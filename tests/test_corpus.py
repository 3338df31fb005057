from collections import Counter

from drumspec import corpus


def test_each_reference_spectrum_is_computed_once_per_run(monkeypatch):
    computed = Counter()
    original = corpus.spectrum_for

    def counting_spectrum_for(ref, seed=0):
        computed[ref.label] += 1
        return original(ref, seed=seed)

    monkeypatch.setattr(corpus, "spectrum_for", counting_spectrum_for)
    checks = dict(corpus.build_corpus(fem=False))
    checks["fit/analytic-a0-recovery"]()
    checks["classifier/corpus"]()
    analytic = [ref.label for ref in corpus.REFERENCE_DOMAINS if ref.analytic]
    assert computed == Counter(analytic)


def test_analytic_fits_are_shared_between_checks(monkeypatch):
    from drumspec import asymptotic_fit, classifier, heat_trace

    calls = Counter()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name, module in (("evaluate_trace", heat_trace),
                         ("fit_expansion", asymptotic_fit)):
        wrapper = counting(name, getattr(module, name))
        monkeypatch.setattr(module, name, wrapper)
        monkeypatch.setattr(classifier, name, wrapper)
    checks = dict(corpus.build_corpus(fem=False))
    checks["fit/analytic-a0-recovery"]()
    checks["classifier/corpus"]()
    analytic = [ref for ref in corpus.REFERENCE_DOMAINS if ref.analytic]
    # one trace and one fit per verdict, shared by both checks
    assert calls == Counter(evaluate_trace=len(analytic),
                            fit_expansion=len(analytic))
