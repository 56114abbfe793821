"""The seven records behave as the frozen dataclasses they replace did.

Each record is checked against a frozen dataclass with the same name,
fields and defaults, built here: the same ``repr`` text, the same hash,
and a generated constructor with the dataclass's parameters, defaults
and ``TypeError`` messages.  A record's ``_check`` hook runs however the
record is built.
"""

import copy
import dataclasses
import inspect
import pickle

import pytest

from hubbard_gap import (AsymptoticComparison, ConstantsReport, DomainError,
                         GapParams, GapSolution, LaurentFit, QuadratureConfig,
                         RegularizedLimit)
from hubbard_gap.record import set_field

FIT = LaurentFit(0.0506, 0.1405, 0.0070, 1.2e-12)

RECORDS = [
    (GapParams, (1.0, 1.0)),
    (GapSolution, (0.0597, 3.1e-16, (0.0149, 0.239), 13)),
    (AsymptoticComparison, (1.0, 0.0597, 0.0598, 5e-5, 2.2e-6)),
    (QuadratureConfig, (1e-8, 1e-12, 50)),
    (LaurentFit, (0.0506, 0.1405, 0.0070, 1.2e-12)),
    (RegularizedLimit, (FIT, FIT, 0.0070134, (0.77, 1.9), (0.0071, 0.0072))),
    (ConstantsReport, (0.0070134, 0.0070134, 1e-15, 0.326, 1.989, 1.764, 0.14,
                       {"b1_magnitude": 1e-15})),
]

#: the defaults each record's constructor must declare, as its dataclass did
DEFAULTS = {
    GapParams: {"t": 1.0},
    QuadratureConfig: {"rel_tol": 1e-10, "abs_tol": 1e-13, "max_depth": 200},
    ConstantsReport: {"deviations": None},
}


def twin_class(cls):
    """The frozen dataclass that ``cls`` replaces, with its defaults."""
    defaults = DEFAULTS.get(cls, {})
    fields = [(name, "typing.Any", dataclasses.field(default=defaults[name]))
              if name in defaults else name for name in cls._fields]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def twin(cls, args):
    """The frozen dataclass that ``cls`` replaces, built from ``args``."""
    return twin_class(cls)(*args)


def _parameters(cls):
    return [(p.name, p.kind, p.default)
            for p in inspect.signature(cls).parameters.values()]


@pytest.mark.parametrize("cls, args", RECORDS, ids=[c.__name__ for c, _ in RECORDS])
class TestRecord:
    def test_positional_equals_keyword(self, cls, args):
        record = cls(*args)
        assert record == cls(**dict(zip(cls._fields, args)))
        assert [getattr(record, name) for name in cls._fields] == list(args)

    def test_repr_is_the_dataclass_text(self, cls, args):
        assert repr(cls(*args)) == repr(twin(cls, args))

    def test_equality_and_hash(self, cls, args):
        record = cls(*args)
        changed = cls(*args[:-1], {} if isinstance(args[-1], dict) else 2 * args[-1])
        assert record != changed
        assert record != tuple(args)
        if cls is ConstantsReport:  # its deviations dict is unhashable
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(cls(*args)) == hash(twin(cls, args))

    def test_frozen(self, cls, args):
        record = cls(*args)
        name = cls._fields[0]
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, args[0])
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, name) == args[0]

    @pytest.mark.parametrize("clone", [
        lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_round_trip(self, cls, args, clone):
        record = cls(*args)
        other = clone(record)
        assert type(other) is cls
        assert other == record

    def test_signature_is_the_dataclass_signature(self, cls, args):
        assert _parameters(cls) == _parameters(twin_class(cls))
        assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"

    @pytest.mark.parametrize("call", [
        lambda make, fields, args: make(),
        lambda make, fields, args: make(**dict(zip(fields[1:], args[1:]))),
        lambda make, fields, args: make(*args, 0),
        lambda make, fields, args: make(*args, bogus=0),
        lambda make, fields, args: make(*args, **{fields[0]: args[0]}),
    ], ids=["none", "missing", "surplus", "unknown", "twice"])
    def test_arguments_bind_as_in_the_dataclass(self, cls, args, call):
        # the same TypeError text, or (only where every field has a
        # default) the same field values
        outcomes = []
        for make in (twin_class(cls), cls):
            try:
                record = call(make, cls._fields, args)
            except TypeError as exc:
                outcomes.append(str(exc))
            else:
                outcomes.append([getattr(record, name) for name in cls._fields])
        assert outcomes[0] == outcomes[1]
        assert isinstance(outcomes[0], str) or cls is QuadratureConfig

    def test_asdict_in_field_order(self, cls, args):
        record = cls(*args)
        assert list(record._asdict()) == list(cls._fields)
        assert list(record._asdict().values()) == list(args)
        assert cls.__match_args__ == cls._fields


def test_records_of_different_types_differ():
    values = (0.0506, 0.1405, 0.0070, 13)
    assert LaurentFit(*values) != GapSolution(*values)


def test_match_positional():
    match GapParams(2.0, 0.5):
        case GapParams(u, t):
            assert (u, t) == (2.0, 0.5)


def _stored(cls, args):
    """A record holding ``args`` as stored, built without its ``__init__``
    (so without its ``_check``)."""
    record = object.__new__(cls)
    for name, value in zip(cls._fields, args):
        set_field(record, name, value)
    return record


BUILDS = {
    "positional": lambda cls, args: cls(*args),
    "keyword": lambda cls, args: cls(**dict(zip(cls._fields, args))),
    "pickle": lambda cls, args: pickle.loads(pickle.dumps(_stored(cls, args))),
    "copy": lambda cls, args: copy.copy(_stored(cls, args)),
    "deepcopy": lambda cls, args: copy.deepcopy(_stored(cls, args)),
}


@pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS)
@pytest.mark.parametrize("cls, args, message", [
    (GapParams, (0.0, 1.0), "coupling must be positive"),
    (QuadratureConfig, (1e-8, 1e-12, 0), r"max_depth must be an integer in \[1, 2147483647\]"),
], ids=["GapParams", "QuadratureConfig"])
def test_check_runs_on_every_construction(cls, args, message, build):
    with pytest.raises(DomainError, match=f"^{message}$"):
        build(cls, args)


@pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS)
def test_deviations_normalized_on_every_construction(build):
    args = RECORDS[-1][1][:-1] + (None,)
    assert build(ConstantsReport, args).deviations == {}


def test_defaults():
    assert GapParams(1.5) == GapParams(1.5, 1.0)
    assert QuadratureConfig() == QuadratureConfig(1e-10, 1e-13, 200)
    report = ConstantsReport(*RECORDS[-1][1][:-1])
    assert report.deviations == {}
    assert report.deviations is not ConstantsReport(*RECORDS[-1][1][:-1]).deviations
    assert pickle.loads(pickle.dumps(report)).deviations == {}


@pytest.mark.parametrize("cls, kwargs, message", [
    (GapParams, {"u": 0.0}, "coupling must be positive"),
    (GapParams, {"u": 1.0, "t": -1.0}, "hopping must be positive"),
    (GapParams, {"u": float("inf")},
     "coupling must be positive and finite, got u = inf, t = 1.0"),
    (QuadratureConfig, {"rel_tol": 0.0},
     "quadrature tolerances must be positive and finite"),
    (QuadratureConfig, {"max_depth": 2.0},
     r"max_depth must be an integer in \[1, 2147483647\]"),
])
def test_domain_messages(cls, kwargs, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        cls(**kwargs)
