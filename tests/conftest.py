import pytest
from hypothesis import HealthCheck, settings

from twistkit import groebner

settings.register_profile(
    "twistkit",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("twistkit")


@pytest.fixture
def core_runs(monkeypatch):
    """A list that gains one entry per run of the Buchberger core (each run
    autoreduces once), starting from an empty basis memo so that bases
    computed by earlier tests hide no run."""
    runs = []
    autoreduce = groebner._autoreduce

    def counting(w, basis):
        runs.append(len(basis))
        return autoreduce(w, basis)

    monkeypatch.setattr(groebner, "_autoreduce", counting)
    groebner._reduced_basis.cache_clear()
    return runs
