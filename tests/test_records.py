"""The package's records behave as the frozen dataclasses they replace:
fields that cannot be set or deleted, equality within one class only, the
hash and repr a frozen dataclass of the same fields gives, and keyword
construction.  Each record also has no ``__dict__`` and survives copy and
pickle, which rebuild it through its ``__init__``."""

import copy
import dataclasses
import pickle
import re
from fractions import Fraction

import pytest

from steinberg_distinction.characters import ChiToken, SupportReport, SupportRule
from steinberg_distinction.cosets import (
    BlockInvolution,
    CaseTag,
    CosetMatrix,
    FineLayout,
    Frozen,
    InvalidInputError,
    Partition,
    Permutation,
    SymbolicRepMatrix,
)
from steinberg_distinction.lfactor import (
    NonvanishingReport,
    QuadraticValue,
    RationalFunc,
    SampleStatus,
)
from steinberg_distinction.oracles.flags import Flag
from steinberg_distinction.oracles.quaternion import QuaternionCheckReport


def matrix():
    return CosetMatrix(CaseTag.ODD, Partition((1, 2)), ((0, 1), (1, 1)))


# (class, its fields in declaration order, a builder of fresh field values)
RECORDS = [
    (Partition, ("parts",), lambda: ((1, 2),)),
    (CosetMatrix, ("case", "partition", "entries"),
     lambda: (CaseTag.ODD, Partition((1, 2)), ((0, 1), (1, 1)))),
    (FineLayout, ("blocks", "start_pos"),
     lambda: (((1, 2, 1), (2, 1, 1), (2, 2, 1)), (1, 2, 3))),
    (Permutation, ("images",), lambda: ((2, 1, 3),)),
    (BlockInvolution, ("pairing", "fixed_blocks", "position_map"),
     lambda: ((1, 0, 2), frozenset({2}), Permutation((2, 1, 3)))),
    (SymbolicRepMatrix, ("entries",), lambda: ((("0", "l"), ("-l", "1")),)),
    (SupportReport, ("s", "chi", "violations"),
     lambda: (matrix(), ChiToken.ETA, ((3, SupportRule.FIXED_SIGN_OBSTRUCTION),))),
    (QuadraticValue, ("a", "b", "r"), lambda: (Fraction(1, 2), Fraction(-3), 5)),
    (RationalFunc, ("num", "den"), lambda: (((1,), (0, 2)), ((1,),))),
    (NonvanishingReport, ("value_at_t1", "samples"),
     lambda: (RationalFunc(((2,),), ((1,),)), ((2, SampleStatus.NONZERO, "2"),))),
    (Flag, ("partition", "bases"), lambda: (Partition((1, 1)), (((1, 0),), ((1, 0), (0, 1))))),
    (QuaternionCheckReport,
     ("alpha", "beta", "homomorphism", "involution", "orders_agree",
      "fixes_first_factor", "semilinear"),
     lambda: (Fraction(-1), Fraction(3), True, True, True, True, True)),
]

parametrize = pytest.mark.parametrize(
    "cls, fields, values", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS]
)


def as_dataclass(cls, fields, values):
    """The frozen dataclass the record replaces, holding the same values."""
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)(*values)


def test_every_record_is_listed():
    listed = {cls for cls, _, _ in RECORDS}
    assert len(listed) == len(RECORDS) == 12
    assert set(Frozen.__subclasses__()) == listed


@parametrize
def test_fields_are_slots_in_declaration_order(cls, fields, values):
    record = cls(*values())
    assert cls.__slots__ == fields
    assert not hasattr(record, "__dict__")
    assert tuple(getattr(record, name) for name in fields) == values()


@parametrize
def test_fields_cannot_be_set_or_deleted(cls, fields, values):
    record = cls(*values())
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(*values())


@parametrize
def test_equality_and_hash_are_the_dataclass_ones(cls, fields, values):
    record, twin = cls(*values()), cls(*values())
    assert record == twin and not record != twin
    assert hash(record) == hash(twin) == hash(values()) == hash(as_dataclass(cls, fields, values()))
    assert record != values() and values() != record
    assert record != as_dataclass(cls, fields, values())
    assert len({record, twin}) == 1


@parametrize
def test_repr_is_the_dataclass_one(cls, fields, values):
    record = cls(*values())
    assert repr(record) == repr(as_dataclass(cls, fields, values()))
    assert repr(record).startswith(f"{cls.__name__}({fields[0]}=")


@parametrize
def test_keyword_construction(cls, fields, values):
    assert cls(**dict(zip(fields, values()))) == cls(*values())


@parametrize
def test_copy_and_pickle_rebuild_an_equal_record(cls, fields, values):
    record = cls(*values())
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record and hash(clone) == hash(record)


def test_records_of_different_classes_with_equal_values_differ():
    # both hold one tuple of ints, so only the class tells them apart
    assert Partition((1, 2)) != Permutation((1, 2))
    assert not Partition((1, 2)) == Permutation((1, 2))
    assert hash(Partition((1, 2))) == hash(Permutation((1, 2)))
    assert len({Partition((1, 2)), Permutation((1, 2))}) == 2


def test_keyword_construction_used_by_the_package():
    assert RationalFunc(num=(), den=((1,),)).num == ()
    r = SupportReport(s=matrix(), chi=ChiToken.TRIV, violations=())
    assert r.feasible and r.s == matrix()


def test_checks_run_in_init_with_their_messages():
    with pytest.raises(InvalidInputError, match="partition must be nonempty"):
        Partition(())
    with pytest.raises(InvalidInputError, match="partition parts must be positive"):
        Partition((1, 0))
    with pytest.raises(InvalidInputError, match="images must be a bijection"):
        Permutation((1, 1))
    with pytest.raises(InvalidInputError, match="basis dimensions"):
        Flag(Partition((2,)), (((1, 0),),))


@pytest.mark.parametrize(
    "case, parts, entries, message",
    [
        (CaseTag.ODD, (1, 2), ((0, 1),), "entries must be a t x t matrix"),
        (CaseTag.ODD, (1, 2), ((0, 1), (1, 1), (0, 0)), "entries must be a t x t matrix"),
        (CaseTag.ODD, (1, 2), ((0, 1), (1,)), "entries must be a t x t matrix"),
        (CaseTag.ODD, (1, 2), ((0, 1), (1, 1, 0)), "entries must be a t x t matrix"),
        (CaseTag.ODD, (1, 2), ((2, -1), (0, 2)), "entries must be non-negative"),
        (CaseTag.ODD, (1, 2), ((0, 1), (0, 2)), "entries must be symmetric"),
        (CaseTag.ODD, (1, 1, 3), ((0, 0, 0), (0, 0, 1), (0, 0, 3)), "row 0 sums to 0, expected 1"),
        (CaseTag.ODD, (1, 2), ((0, 1), (1, 0)), "row 1 sums to 1, expected 2"),
        (CaseTag.EVEN, (2, 1), ((1, 0), (0, 1)), "row 0 sums to 1, expected 2"),
        (CaseTag.EVEN, (1, 2), ((1, 0), (0, 1)), "diagonal entries must be even in the even case"),
    ],
    ids=["missing-row", "extra-row", "short-row", "long-row", "negative", "asymmetric",
         "row-sum-before-later-asymmetry", "row-sum", "row-sum-before-odd-diagonal", "odd-diagonal"],
)
def test_coset_matrix_names_its_first_fault(case, parts, entries, message):
    # the shape, then non-negative entries, then row by row: symmetry,
    # the row sum and, in the even case, an even diagonal entry
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        CosetMatrix(case, Partition(parts), entries)
