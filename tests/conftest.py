"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from drumspec.geometry import DomainSpec, _segment_from_dict


def _moved(domain, rot, shift):
    """``domain`` under the rigid motion p -> rot @ p + shift.

    The points of every segment's ``to_dict()`` are mapped (an arc keeps its
    signed radius, which is right for rotations) and the segments are
    rebuilt by the domain-file loader's segment reader."""
    rot, shift = np.asarray(rot, dtype=float), np.asarray(shift, dtype=float)

    def move(doc):
        for key in ("start", "end", "center"):
            if key in doc:
                doc[key] = rot @ np.asarray(doc[key]) + shift
        if "points" in doc:
            doc["points"] = np.asarray(doc["points"]) @ rot.T + shift
        return _segment_from_dict(doc, domain.label)

    return DomainSpec([[move(s.to_dict()) for s in loop.segments]
                       for loop in domain.loops], label=domain.label)


@pytest.fixture
def moved():
    """``moved(domain, rot, shift)``: the domain after a rigid motion."""
    return _moved
