"""The shared immutable record base, model.Record, over every record class."""
import pytest

import softhandoff
from softhandoff import conf_sim
from softhandoff.gaussian_mi import PowerAllocation
from softhandoff.model import MuxPair, NetworkConfig, Record

RECORDS = [cls for name in softhandoff.__all__
           if isinstance(cls := getattr(softhandoff, name), type) and issubclass(cls, Record) and cls is not Record]
RECORDS.append(conf_sim._Layout)
IDENTITY = {"JointGaussianSpec", "_Layout"}  # declared with eq=False

# values that pass the __post_init__ of the classes that check their fields; other fields take their index
VALID = {
    "MuxPair": {"s_fast": 0.25, "s_slow": 0.5},
    "Region": {"vertices": ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)), "kind": "polygon"},
    "PowerAllocation": {"fractions": (0.25, 0.5)},
    "MuxRegionSpec": {"mode": "rx_bidirectional", "mu": 0.25, "d_max": 2},
}


def _values(cls) -> dict:
    """A valid, hashable value of each field of cls."""
    return {name: VALID.get(cls.__name__, {}).get(name, i + 10) for i, name in enumerate(cls._fields)}


def _required(cls) -> list[str]:
    return [name for name in cls._fields if name not in cls._defaults]


def test_every_record_class_is_covered():
    assert len(RECORDS) == 20
    assert not {cls.__name__ for cls in RECORDS if cls.__eq__ is not Record.__eq__} - IDENTITY


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestRecord:
    def test_positional_and_keyword_construction(self, cls):
        values = _values(cls)
        for rec in (cls(**values), cls(*values.values())):
            assert [getattr(rec, f) for f in cls._fields] == list(values.values())

    def test_defaults_fill_the_fields_left_out(self, cls):
        values = _values(cls)
        rec = cls(**{f: values[f] for f in _required(cls)})
        assert cls._fields[:len(_required(cls))] == tuple(_required(cls))  # defaults trail
        for name, default in cls._defaults.items():
            assert getattr(rec, name) == default

    def test_bad_calls_raise_type_error(self, cls):
        values = _values(cls)
        first = cls._fields[0]
        with pytest.raises(TypeError, match="missing"):
            cls(**{f: v for f, v in values.items() if f != _required(cls)[-1]})
        with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
            cls(**values, bogus=1)
        with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
            cls(values[first], **values)
        with pytest.raises(TypeError, match="positional arguments"):
            cls(*values.values(), 1)

    def test_assignment_and_deletion_raise_attribute_error(self, cls):
        rec = cls(**_values(cls))
        for name in (cls._fields[0], "other"):
            with pytest.raises(AttributeError):
                setattr(rec, name, 1)
            with pytest.raises(AttributeError):
                delattr(rec, name)
        assert getattr(rec, cls._fields[0]) == _values(cls)[cls._fields[0]]

    def test_replace_builds_a_new_record(self, cls):
        values = _values(cls)
        rec = cls(**values)
        last = cls._fields[-1]
        new = values[last] if cls.__name__ in VALID else -1
        changed = rec.replace(**{last: new})
        assert type(changed) is cls and changed is not rec
        assert [getattr(changed, f) for f in cls._fields] == [*list(values.values())[:-1], new]
        assert [getattr(rec, f) for f in cls._fields] == list(values.values())
        with pytest.raises(TypeError):
            rec.replace(bogus=1)

    def test_equality_and_hash(self, cls):
        a, b = cls(**_values(cls)), cls(**_values(cls))
        if cls.__name__ in IDENTITY:
            assert a == a and a != b
            assert hash(a) == object.__hash__(a)
            return
        assert a == b and hash(a) == hash(b)
        first = cls._fields[0]
        if cls.__name__ not in VALID:  # any value will do
            assert a != a.replace(**{first: -1})

    def test_another_class_with_equal_values_is_not_equal(self, cls):
        twin = type("Twin", (Record,), {"__annotations__": dict.fromkeys(cls._fields, "object")})
        values = _values(cls)
        assert cls(**values) != twin(**values)
        assert not cls(**values) == twin(**values)


def test_replace_runs_post_init():
    with pytest.raises(ValueError, match="sum to at most 1"):
        PowerAllocation((0.5,)).replace(fractions=(2.0,))
    assert PowerAllocation((0.5,)).replace(fractions=(1,)).fractions == (1.0,)  # normalised as when built


def test_reprs_are_the_dataclass_text():
    assert repr(NetworkConfig(alpha=0.2, p=5.0)) == "NetworkConfig(alpha=0.2, p=5.0, k=inf, pi=0.0, d_max=1)"
    assert repr(MuxPair(0.25, 0.5)) == "MuxPair(s_fast=0.25, s_slow=0.5)"
    assert repr(PowerAllocation((0.5, 0.5))) == "PowerAllocation(fractions=(0.5, 0.5))"
