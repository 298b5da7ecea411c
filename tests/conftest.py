import pytest
from hypothesis import settings

from saep.synth import synth_corpus

# No deadline: example timings on a shared host drift by tens of percent.
# Derandomized, so that every run of the suite draws the same examples.
settings.register_profile("saep", deadline=None, derandomize=True)
settings.load_profile("saep")


@pytest.fixture(scope="session")
def mini_corpus(tmp_path_factory):
    """A small synthetic corpus shared by CLI-level tests."""
    out_dir = tmp_path_factory.mktemp("mini_corpus")
    return synth_corpus(out_dir, n_speakers=3, utts_per_speaker=3,
                        duration=0.5, seed=1, n_pairs_per_class=5)
