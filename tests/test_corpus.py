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
