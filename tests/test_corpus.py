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
    from drumspec import classifier

    fits = Counter()
    original = classifier.fit_expansion

    def counting_fit_expansion(samples, *args, **kwargs):
        fits["calls"] += 1
        return original(samples, *args, **kwargs)

    monkeypatch.setattr(classifier, "fit_expansion", counting_fit_expansion)
    monkeypatch.setattr("drumspec.asymptotic_fit.fit_expansion",
                        counting_fit_expansion)
    checks = dict(corpus.build_corpus(fem=False))
    checks["fit/analytic-a0-recovery"]()
    checks["classifier/corpus"]()
    analytic = [ref for ref in corpus.REFERENCE_DOMAINS if ref.analytic]
    # one blind fit and one robustness-probe refit per verdict, nothing more
    assert fits["calls"] == 2 * len(analytic)
