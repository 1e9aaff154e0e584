"""Tests for the algorithm factory registry."""

import pytest

from repro.core.bsd import BSDDemux
from repro.core.connection_id import ConnectionIdDemux
from repro.core.hashed_mtf import HashedMTFDemux
from repro.core.registry import available_algorithms, make_algorithm
from repro.core.sequent import SequentDemux
from repro.fastpath.cuckoo import FastCuckooDemux
from repro.hashing.functions import xor_fold

from conftest import make_pcbs

#: The paper's five structures, as specs.
PAPER_STRUCTURES = ["linear", "bsd", "mtf", "sequent:h=5", "hashed_mtf:h=3"]


class TestLookupByName:
    @pytest.mark.parametrize(
        "name", ["linear", "bsd", "mtf", "multicache", "sendrecv",
                 "sequent", "hashed_mtf", "connection_id"]
    )
    def test_every_registered_name_constructs(self, name):
        algorithm = make_algorithm(name)
        assert algorithm.name == name
        for pcb in make_pcbs(3):
            algorithm.insert(pcb)
        assert len(algorithm) == 3

    def test_available_algorithms_sorted(self):
        names = list(available_algorithms())
        assert names == sorted(names)
        assert "sequent" in names

    def test_case_insensitive_name(self):
        assert isinstance(make_algorithm("BSD"), BSDDemux)

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="known:"):
            make_algorithm("btree")


class TestParameterizedSpecs:
    def test_sequent_chain_count(self):
        demux = make_algorithm("sequent:h=51")
        assert isinstance(demux, SequentDemux)
        assert demux.nchains == 51

    def test_sequent_hash_function(self):
        demux = make_algorithm("sequent:h=7,hash=xor_fold")
        assert demux._hash is xor_fold

    def test_sequent_default_chains(self):
        assert make_algorithm("sequent").nchains == 19

    def test_hashed_mtf_cache_flag(self):
        on = make_algorithm("hashed_mtf:h=5,cache=yes")
        off = make_algorithm("hashed_mtf:h=5,cache=no")
        assert isinstance(on, HashedMTFDemux)
        assert on._per_chain_cache is True
        assert off._per_chain_cache is False

    def test_connection_id_max(self):
        demux = make_algorithm("connection_id:max=17")
        assert demux.max_connections == 17

    def test_multicache_size(self):
        demux = make_algorithm("multicache:k=16")
        assert demux.cache_size == 16
        assert make_algorithm("multicache").cache_size == 8

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            make_algorithm("bsd:h=19")
        with pytest.raises(ValueError, match="unknown parameter"):
            make_algorithm("sequent:chains=19")
        with pytest.raises(ValueError, match="unknown parameter"):
            make_algorithm("sharded-fast-sequent:h=19,shards=8,workers=2")

    def test_malformed_parameter_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            make_algorithm("sequent:h")

    def test_unknown_hash_rejected(self):
        with pytest.raises(ValueError, match="known:"):
            make_algorithm("sequent:hash=sha512")

    def test_fresh_instance_per_call(self):
        a, b = make_algorithm("bsd"), make_algorithm("bsd")
        assert a is not b
        for pcb in make_pcbs(2):
            a.insert(pcb)
        assert len(b) == 0


class TestRejectionMessages:
    """Unknown options must name both the offender and the accepted set."""

    def test_error_names_the_bad_option(self):
        with pytest.raises(ValueError, match="chains"):
            make_algorithm("sequent:chains=19")
        with pytest.raises(ValueError, match="workers"):
            make_algorithm("sharded-fast-sequent:h=19,shards=8,workers=2")

    def test_error_lists_accepted_options(self):
        with pytest.raises(ValueError, match="accepts: h, hash, overload"):
            make_algorithm("sequent:chains=19")
        with pytest.raises(ValueError, match="accepts: h, hash, cache"):
            make_algorithm("hashed_mtf:k=5")
        with pytest.raises(ValueError, match="accepts: k"):
            make_algorithm("multicache:size=4")
        with pytest.raises(ValueError, match="accepts: max"):
            make_algorithm("connection_id:cap=10")
        with pytest.raises(ValueError, match="accepts: h, hash, overload"):
            make_algorithm("sharded-fast-sequent:h=19,shards=8,workers=2")

    def test_optionless_algorithms_say_none(self):
        with pytest.raises(ValueError, match="accepts: none"):
            make_algorithm("bsd:h=19")

    def test_multiple_bad_options_all_named(self):
        with pytest.raises(ValueError, match="chains, depth"):
            make_algorithm("sequent:chains=19,depth=3")

    def test_fast_spec_errors_name_the_fast_spec(self):
        with pytest.raises(
            ValueError, match="'fast-sequent'.*accepts: h, hash, overload"
        ):
            make_algorithm("fast-sequent:chains=19")


class TestFastVariants:
    """``fast-`` is a spelling alias: same class, the caller's spec kept."""

    @pytest.mark.parametrize(
        "name", ["fast-linear", "fast-bsd", "fast-mtf", "fast-sequent",
                 "fast-hashed_mtf"]
    )
    def test_every_fast_name_constructs(self, name):
        algorithm = make_algorithm(name)
        assert algorithm.name == name[len("fast-"):]
        for pcb in make_pcbs(3):
            algorithm.insert(pcb)
        assert len(algorithm) == 3

    @pytest.mark.parametrize("spec", PAPER_STRUCTURES)
    def test_alias_builds_the_same_class(self, spec):
        plain = make_algorithm(spec)
        fast = make_algorithm("fast-" + spec)
        assert type(fast) is type(plain)
        assert plain.spec == spec
        assert fast.spec == "fast-" + spec

    @pytest.mark.parametrize("spec", PAPER_STRUCTURES)
    def test_sharded_alias_builds_the_same_shards(self, spec):
        name, _, params = spec.partition(":")
        suffix = f",{params}" if params else ""
        plain = make_algorithm(f"sharded-{name}:shards=2" + suffix)
        fast = make_algorithm(f"sharded-fast-{name}:shards=2" + suffix)
        assert type(fast) is type(plain)
        assert [type(shard) for shard in fast.shards] == [
            type(shard) for shard in plain.shards
        ]
        assert fast.spec == f"sharded-fast-{name}:shards=2" + suffix

    def test_spec_is_stamped_verbatim(self):
        assert make_algorithm(" FAST-Sequent:h=7 ").spec == "FAST-Sequent:h=7"

    def test_each_structure_listed_once(self):
        names = list(available_algorithms())
        assert names == sorted(names)
        assert len(names) == len(set(names))
        assert not [name for name in names if name.startswith("fast-")]
        assert {"linear", "bsd", "mtf", "sequent", "hashed_mtf",
                "cuckoo"} <= set(names)

    def test_fast_accepts_reference_options(self):
        demux = make_algorithm("fast-sequent:h=51,hash=xor_fold,overload=9")
        assert demux.nchains == 51
        assert demux._hash is xor_fold
        assert demux.overload_threshold == 9
        assert make_algorithm("fast-sequent").nchains == 19

    def test_fast_hashed_mtf_cache_flag(self):
        off = make_algorithm("fast-hashed_mtf:h=5,cache=no")
        assert off._per_chain_cache is False

    def test_unknown_fast_name_lists_known(self):
        with pytest.raises(ValueError, match="'fast-btree'; known: .*sequent"):
            make_algorithm("fast-btree")

    def test_alias_applies_to_every_name(self):
        assert isinstance(
            make_algorithm("fast-connection_id"), ConnectionIdDemux
        )
        assert isinstance(make_algorithm("cuckoo"), FastCuckooDemux)

    def test_sharded_fast_composes(self):
        demux = make_algorithm("sharded-fast-sequent:shards=4,h=5")
        assert demux.nshards == 4
        assert demux.name == "sharded-sequent"
        assert demux.shards[0].nchains == 5


class TestOptionValues:
    """A bad option value fails as loudly as a bad option name."""

    @pytest.mark.parametrize(
        "spec,match",
        [
            ("sequent:hash=crc17", r"'hash' of 'sequent'.*known: .*crc16"),
            ("fast-sequent:hash=crc17", r"'hash' of 'fast-sequent'"),
            ("hashed_mtf:cache=flase", r"'cache' of 'hashed_mtf'.*yes, true"),
            ("hashed_mtf:cache=2", r"'cache'"),
            ("sequent:h=abc", r"'h' of 'sequent'.*an integer"),
            ("sequent:overload=x", r"'overload'.*an integer"),
            ("multicache:k=1.5", r"'k' of 'multicache'.*an integer"),
            ("connection_id:max=", r"'max'.*an integer"),
            ("cuckoo:buckets=many", r"'buckets' of 'cuckoo'"),
            ("sharded-bsd:shards=four", r"'shards' of 'sharded-bsd'"),
            ("sharded-bsd:steer=hash=crc17", r"'steer'.*known:"),
        ],
    )
    def test_bad_value_is_a_value_error_naming_the_option(self, spec, match):
        with pytest.raises(ValueError, match=match):
            make_algorithm(spec)

    @pytest.mark.parametrize(
        "text,expected",
        [("1", True), ("yes", True), ("TRUE", True),
         ("0", False), ("no", False), ("False", False)],
    )
    def test_cache_flag_spellings(self, text, expected):
        demux = make_algorithm(f"hashed_mtf:h=3,cache={text}")
        assert demux._per_chain_cache is expected
