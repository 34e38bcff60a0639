"""The synthetic corpus generator's random stream: byte identity over a spec
matrix, and the scalar draw it is built on."""

import hashlib
import json

import numpy as np
import pytest

from duotune.data import SynthCorpusSpec, gen_synth_corpus
from duotune.tensor import Rng

SMALL = dict(n_pretrain=6, n_tune=6, n_heldout=5, n_pairs_per_label=4)

# SHA-256 of each corpus below: a change to the generator's random stream, its
# purity test or its rendering shows here.
CORPUS_DIGESTS = [
    ({}, "93253b604fd7bb4347153e51be942daffe2ec45e6bdda02b7570289791999377"),
    ({"seed": 5}, "9ed4c6682816c17542f5d6958a5fc361199297e5edc0f29ff285657f8a36540c"),
    ({"sentence_len": 16}, "118173c6b4e26e381ef89a0edf9b0481934701792b24544c65d5c5ad7ce47752"),
    ({"sentence_len": 1}, "3f3d91013ed498770c15be6122d6285a71662d35435f185c31af32547e1c6c55"),
    ({"sentence_len": 7}, "7cd12f5a075ec62fdbacb539dd374595eb72fe5fdaf27ef5dda77ef585624d33"),
    ({"topic_purity": 0.0}, "2d57d02c7be6f47dd5989070ce22469144309dff13ec9a4f4d67f106d41e7ac1"),
    ({"topic_purity": 0.5}, "a47d337f77d3f7ff8294f10e2d7c28dec920dcc22bf168b258a49d9b295b5469"),
    ({"topic_purity": 1.0}, "a363a41d4dd63b176baa4ba695c1bebe57a876fd455285e6c506eeb7a0bf7934"),
    ({"n_languages": 1}, "15421d7921878f2798fbea329953aa5e53d61fe32e1b3f56353262965508da62"),
    ({"vocab_size": 50, "n_topics": 7},   # 50 is not a multiple of 7
     "96ff5c1abc7651f425638fe42243a0e7f7024b8eec5d6161e2e790b799e5eb35"),
    ({"n_topics": 2}, "3961e90cc72467b62887fd3c11a9bd81e50ae62193b67ac536839efc52079c71"),
    ({"vocab_size": 97, "n_languages": 3, "seed": 11},
     "2fdd4b69e996dc47446c5ea241c88f32b7c19b7ec405da3121e7b947ec469d23"),
]


def corpus_digest(corpus) -> str:
    doc = {"vocab": corpus.vocab_tokens, "maps": [m.tolist() for m in corpus.language_maps],
           "pretrain": [s.to_json() for s in corpus.pretrain],
           "tune": [s.to_json() for s in corpus.tune_lang0],
           "heldout": {str(k): [s.to_json() for s in v] for k, v in corpus.heldout.items()},
           "pairs": corpus.pair_records}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("fields, digest", CORPUS_DIGESTS, ids=[str(f) for f, _ in CORPUS_DIGESTS])
def test_gen_synth_corpus_is_byte_identical(fields, digest):
    assert corpus_digest(gen_synth_corpus(SynthCorpusSpec(**SMALL, **fields))) == digest


def test_random_is_uniform_0_1_at_the_same_stream_position():
    ours, ref = Rng(9).spawn(20), np.random.default_rng([9, 20])
    for k in range(200):
        a = ours.random()
        b = ref.uniform(0, 1, size=())
        assert type(a) is float and a == float(b)
        n = 1 + k % 13                    # bounded-integer draws in between
        assert int(ours.integers(0, n)) == int(ref.integers(0, n))
