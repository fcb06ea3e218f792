"""The result records and the two checked types, and what importing them costs.

Particle, GeodesicSegment, BalanceVerdict, RotationSweep, TangentVector
and KarcherResult are NamedTuples.  MassedSystem and TwoBodyEquilibrium
check their fields when they are built: equality, hash and repr read
the fields they were built from, so a system's total_mass is left out,
and a copy or pickle is rebuilt through the same checks.  None of them
is a dataclass, so importing the CLI loads neither dataclasses nor the
inspect module that it imports.
"""

import copy
import os
import pickle
import subprocess
import sys

import pytest

import hypercom
from hypercom import (
    BalanceVerdict,
    CenterOfMass,
    GeodesicSegment,
    HPoint,
    KarcherResult,
    MassedSystem,
    Particle,
    RotationSample,
    RotationSweep,
    TangentVector,
    TwoBodyEquilibrium,
    disk_system,
)

PARTNER_12 = 0.2679491924311227  # balance_radius(1, 2, 0.5, 1)
COM = CenterOfMass(center=0.5 + 0j, log_ratio_mean=1 + 0j, total_mass=3.0)

# Each record's fields by keyword, and its repr: that of the frozen
# dataclass each of them was.
RECORDS = [
    (Particle, dict(mass=1.5, position=0.25 + 0.5j), "Particle(mass=1.5, position=(0.25+0.5j))"),
    (
        GeodesicSegment,
        dict(start=0.5 + 0j, end=-0.25j, radius=1.0, length=1.25),
        "GeodesicSegment(start=(0.5+0j), end=(-0-0.25j), radius=1.0, length=1.25)",
    ),
    (
        BalanceVerdict,
        dict(partner_radius=0.25, relation="less", matches_mass_order=True),
        "BalanceVerdict(partner_radius=0.25, relation='less', matches_mass_order=True)",
    ),
    (
        RotationSweep,
        dict(base=COM, samples=(RotationSample(0.0, COM, 0.0),), max_defect=0.0, max_center_abs=0.5),
        "RotationSweep(base=CenterOfMass(center=(0.5+0j), log_ratio_mean=(1+0j), total_mass=3.0), "
        "samples=(RotationSample(angle=0.0, com=CenterOfMass(center=(0.5+0j), "
        "log_ratio_mean=(1+0j), total_mass=3.0), defect=0.0),), max_defect=0.0, max_center_abs=0.5)",
    ),
    (
        TangentVector,
        dict(base=HPoint(0.0, 0.0, 1.0), along=0.5, across=0.0),
        "TangentVector(base=HPoint(x=0.0, y=0.0, z=1.0), along=0.5, across=0.0)",
    ),
    (
        KarcherResult,
        dict(point=HPoint(0.0, 0.0, 1.0), iterations=3, gradient_norm=1e-13),
        "KarcherResult(point=HPoint(x=0.0, y=0.0, z=1.0), iterations=3, gradient_norm=1e-13)",
    ),
    (
        MassedSystem,
        dict(mass_column=(1.0, 2.5), position_column=(0.5 + 0j, -0.25j), radius=1.0, model="disk"),
        "MassedSystem(mass_column=(1.0, 2.5), position_column=((0.5+0j), (-0-0.25j)), "
        "radius=1.0, model='disk')",
    ),
    (
        TwoBodyEquilibrium,
        dict(m1=1.0, m2=2.0, alpha=0.5, partner_radius=PARTNER_12, radius=1.0),
        "TwoBodyEquilibrium(m1=1.0, m2=2.0, alpha=0.5, partner_radius=0.2679491924311227, "
        "radius=1.0)",
    ),
]
CHECKED = (MassedSystem, TwoBodyEquilibrium)
RECORD_IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=RECORD_IDS)
def test_record_contract(cls, fields, text):
    record = cls(**fields)
    assert repr(record) == text
    again = cls(*fields.values())
    assert record == again and record is not again
    assert hash(record) == hash(again)
    assert [getattr(record, name) for name in fields] == list(fields.values())
    assert record != object() and record != text
    # A NamedTuple is the tuple of its fields; a checked type is not.
    assert (record == tuple(fields.values())) is (cls not in CHECKED)
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=RECORD_IDS)
def test_records_pickle_and_copy_to_equal_records(cls, fields, text):
    record = cls(**fields)
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [pickle.loads(pickle.dumps(record, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is cls
        assert other == record and hash(other) == hash(record)
        assert repr(other) == text


def test_a_copied_or_unpickled_system_has_its_total_mass():
    system = disk_system([1, 2.5, 0.5], [0.5, -0.25j, 0.0], 1)
    assert system.total_mass == 4.0 and "total_mass" not in repr(system)
    for other in (copy.copy(system), copy.deepcopy(system), pickle.loads(pickle.dumps(system))):
        assert other == system
        assert other.total_mass == 4.0
        assert type(other.radius) is float


def test_the_model_defaults_to_the_disk():
    system = MassedSystem((1.0,), (0.5 + 0j,), 1.0)
    assert system.model == "disk"
    assert system == MassedSystem(mass_column=(1.0,), position_column=(0.5 + 0j,), radius=1.0)
    assert system != MassedSystem((1.0,), (0.5,), 1.0, "line")


@pytest.mark.parametrize("cls, fields, text", RECORDS[-2:], ids=RECORD_IDS[-2:])
def test_each_construction_checks_once(cls, fields, text, monkeypatch):
    calls = []
    check = cls.__post_init__

    def counted(self):
        calls.append(self)
        check(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    record = cls(**fields)
    assert len(calls) == 1
    cls(*fields.values())
    assert len(calls) == 2
    for build in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        build(record)
    assert len(calls) == 5


def test_the_cli_imports_without_dataclasses_or_inspect():
    # import dataclasses also imports inspect, ast, dis and tokenize: about a
    # third of the CLI's start-up.  -S keeps site's own imports out.
    package_parent = os.path.dirname(os.path.dirname(hypercom.__file__))
    done = subprocess.run(
        [
            sys.executable,
            "-S",
            "-c",
            "import sys, hypercom.cli; hypercom.cli.build_parser(); "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
        ],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=package_parent),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
