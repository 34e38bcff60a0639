"""Freeze grammar: parsing, canonical round-trip, and name resolution."""

import pytest

from duotune.encoder import EncoderConfig, param_shapes
from duotune.freeze import (FreezeSpecError, parse_freeze_spec, resolve,
                            trainable_names)


def names_for(n_blocks: int):
    return list(param_shapes(EncoderConfig(n_blocks=n_blocks)))


def joined(tokens) -> str:
    """The tokens in canonical form, as one spec string."""
    return ", ".join(t.text for t in tokens)


@pytest.mark.parametrize("text", [
    "-", "emb.base", "emb", "B0", "B2-5", "B0a", "B0a,i", "B0a,i,od",
    "suffix:output.dense.weight", "emb, B0-5", "emb, suffix:output.dense.weight",
])
def test_canonical_round_trip(text):
    canonical = joined(parse_freeze_spec(text))
    assert joined(parse_freeze_spec(canonical)) == canonical


def test_parse_normalizes_spacing():
    assert joined(parse_freeze_spec("emb,B0-5")) == "emb, B0-5"


def test_none_spec_freezes_nothing():
    assert resolve(parse_freeze_spec("-"), names_for(4)) == set()


def test_emb_base_is_the_three_embedding_tables():
    frozen = resolve(parse_freeze_spec("emb.base"), names_for(4))
    assert frozen == {
        "embeddings.word_embeddings.weight",
        "embeddings.position_embeddings.weight",
        "embeddings.token_type_embeddings.weight",
    }


def test_emb_adds_the_embedding_layer_norm():
    frozen = resolve(parse_freeze_spec("emb"), names_for(4))
    base = resolve(parse_freeze_spec("emb.base"), names_for(4))
    assert frozen == base | {"embeddings.LayerNorm.weight", "embeddings.LayerNorm.bias"}


def test_block_range_is_inclusive():
    names = names_for(8)
    frozen = resolve(parse_freeze_spec("emb, B0-5"), names)
    for i in range(6):
        assert f"encoder.layer.{i}.output.dense.weight" in frozen
    for i in (6, 7):
        assert not any(n.startswith(f"encoder.layer.{i}.") for n in frozen)


def test_freeze_everything_but_the_last_block():
    names = names_for(12)
    trainable = trainable_names(parse_freeze_spec("emb, B0-10"), names)
    assert trainable
    assert all(n.startswith("encoder.layer.11.") for n in trainable)


def test_suffix_freeze_enumerates_every_block():
    frozen = resolve(parse_freeze_spec("emb, suffix:output.dense.weight"), names_for(4))
    suffix_names = {n for n in frozen if not n.startswith("embeddings.")}
    assert suffix_names == {f"encoder.layer.{i}.output.dense.weight" for i in range(4)}


def test_suffix_does_not_match_inside_attention():
    # output.dense.weight must not capture attention.output.dense.weight
    frozen = resolve(parse_freeze_spec("suffix:output.dense.weight"), names_for(4))
    assert all(".attention." not in n for n in frozen)


def test_block_parts_grow_with_extensions():
    names = names_for(2)
    att = resolve(parse_freeze_spec("B0a"), names)
    att_i = resolve(parse_freeze_spec("B0a,i"), names)
    att_i_od = resolve(parse_freeze_spec("B0a,i,od"), names)
    whole = resolve(parse_freeze_spec("B0"), names)
    assert att < att_i < att_i_od < whole
    assert "encoder.layer.0.attention.output.LayerNorm.weight" in att
    assert "encoder.layer.0.intermediate.dense.weight" in att_i - att
    assert "encoder.layer.0.output.dense.weight" in att_i_od - att_i
    # the whole block additionally has the output LayerNorm
    assert "encoder.layer.0.output.LayerNorm.weight" in whole - att_i_od


def test_frozen_and_trainable_partition_the_tree():
    names = names_for(4)
    for text in ("-", "emb", "emb, B0-2", "B1a,i", "suffix:output.dense.bias"):
        spec = parse_freeze_spec(text)
        frozen = resolve(spec, names)
        trainable = set(trainable_names(spec, names))
        assert frozen | trainable == set(names)
        assert frozen & trainable == set()


def test_increasing_freeze_lineage_is_monotone():
    # each spec in this order freezes a superset of the previous one
    lineage = ["-", "emb.base", "emb", "emb, B0a", "emb, B0a,i", "emb, B0a,i,od",
               "emb, B0", "emb, B0-1", "emb, B0-2"]
    names = names_for(4)
    prev = set()
    for text in lineage:
        cur = resolve(parse_freeze_spec(text), names)
        assert prev <= cur, text
        prev = cur


@pytest.mark.parametrize("bad", [
    "wat", "B", "B1-0", "B0a,od", "B0,i", "suffix:", "", "emb,,B0", "-, emb",
])
def test_bad_specs_rejected(bad):
    with pytest.raises(FreezeSpecError):
        parse_freeze_spec(bad)


def test_out_of_range_block_rejected_at_resolve_time():
    spec = parse_freeze_spec("B7")
    with pytest.raises(FreezeSpecError):
        resolve(spec, names_for(4))


def test_dangling_suffix_rejected():
    spec = parse_freeze_spec("suffix:not.a.layer")
    with pytest.raises(FreezeSpecError):
        resolve(spec, names_for(4))


def test_paper_freeze_lineage_freezes_the_embeddings_and_a_block_prefix():
    names = names_for(4)
    for text, n_frozen_blocks in (("emb", 0), ("emb, B0-1", 2), ("emb, B0-2", 3)):
        prefixes = ("embeddings.",) + tuple(f"encoder.layer.{i}." for i in range(n_frozen_blocks))
        assert resolve(parse_freeze_spec(text), names) == \
            {n for n in names if n.startswith(prefixes)}, text


@pytest.mark.parametrize("text", ["B2-5", "B4a", "emb, B4"])
def test_blocks_past_the_last_rejected_at_resolve_time(text):
    spec = parse_freeze_spec(text)
    with pytest.raises(FreezeSpecError):
        resolve(spec, names_for(4))
