"""Shared fixtures: fresh shard workers for every test, and single-pair verdicts through ``protocol.judge``."""

import numpy as np
import pytest

from qpv import analysis
from qpv.protocol import VARIANT_TWO_BIT, MaterialStore, ProtocolConfig, deadline, judge


@pytest.fixture(autouse=True)
def fresh_workers():
    """Stops the warm shard workers before and after every test.

    A worker keeps the module state it started with, so a worker left by an
    earlier test would not see this test's patches.
    """
    analysis._stop_workers()
    yield
    analysis._stop_workers()


def _judge_slots(report, *, psi=None, l1=0, w=0, report_2=None, l2=0, ann=0, measured=None,
                 variant=VARIANT_TWO_BIT):
    """``judge`` on one single-pair trial per slot; returns the verdicts.

    Every argument is a scalar or one value per slot; labels and outcomes are
    ints 2a + b. V1 holds ``report`` and V2 ``report_2`` (default: the same),
    both hold ``ann``, and every material arrives on time. At their defaults,
    V1's side (challenge = report, label and outcome 0) and V2's side
    (measured = report_2, label and announcement 0) are trivially
    consistent, so a test can probe one verifier's check alone.
    """
    report_2 = report if report_2 is None else report_2
    psi = report if psi is None else psi
    measured = report_2 if measured is None else measured
    columns = np.broadcast_arrays(*(np.atleast_1d(np.asarray(value, dtype=np.int64))
                                    for value in (psi, l1, w, report, report_2, l2, ann, measured)))
    psi, l1, w, report, report_2, l2, ann, measured = (column.copy() for column in columns)
    config = ProtocolConfig(n=1, variant=variant)
    v1, v2 = MaterialStore(len(psi)), MaterialStore(len(psi))
    v1.receive(report, ann, deadline(config))
    v2.receive(report_2, ann, deadline(config))
    return judge(config, psi, l1, l2, w, measured, v1, v2)


@pytest.fixture
def judge_slots():
    return _judge_slots
