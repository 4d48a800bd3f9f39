"""The JSON traces of the worked examples, pinned byte for byte.

Each digest is the SHA-256 of ``render_trace(run_example(EX, digits=d),
"json")``.  Any change that moves one digit of one snapshot, or the
layout of the trace, fails here; a change that means to do so must say
why and pin the new digests.
"""

import hashlib

import pytest

from simulroot.fixtures import EXAMPLES, run_example
from simulroot.ingest import render_trace

GOLDEN = {
    (1, 64): "99293dc751a86479b4b0772791cbc949d0f551be3319aa7d35ef5e14f0b438a5",
    (1, 256): "603d95c7d25a4d319fa203850bdd9a198897845b5b97c0d7fcfac974816a1217",
    (2, 64): "a5051dd2d8b0fdbc63e0bf1e88cf554b295b1c0c841886f04be2e0a13e0f96fc",
    (2, 256): "a6b800046373fea016205ec709d1791cdc02195e726b67e8fbabbbed13f7a492",
    (3, 64): "66392ba4792eab56b25be399c057a52067def7db2e5038ae944ccad6b2734d1d",
    (3, 256): "9f02ef7e0b37d534c1e922fd0df7cd18c1eef1404edec2b109410c2ac3c8efdd",
}


@pytest.mark.parametrize("example,digits", sorted(GOLDEN))
def test_worked_example_trace_is_byte_identical(example, digits):
    trace = render_trace(run_example(EXAMPLES[example], digits=digits), "json")
    assert hashlib.sha256(trace).hexdigest() == GOLDEN[example, digits]
