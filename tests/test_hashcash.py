import hashlib
import random
import statistics
import time
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssla.hashcash import (
    ExtensionPayload,
    HashcashStamp,
    PowPolicy,
    ReplaySet,
    leading_zero_bits,
    mint,
    negotiation_id_from,
    parse_stamp_date,
    verify_stamp,
)

NOW = datetime(2026, 1, 1, 0, 0, 0, tzinfo=timezone.utc)
EXT = ExtensionPayload("aa" * 32, "bb" * 32, "cc" * 8)


def make_policy(bits):
    return PowPolicy(required_bits=bits)


def test_mint_verifies():
    stamp = mint("resource", EXT, make_policy(8), rng=random.Random(1), now=NOW)
    check = verify_stamp(stamp, "resource", make_policy(8), ReplaySet(), now=NOW)
    assert check.ok, check.code


def test_mint_zero_bits_takes_first_counter():
    stamp = mint("r", EXT, make_policy(0), rng=random.Random(2), now=NOW)
    assert stamp.counter == "0"
    assert verify_stamp(stamp, "r", make_policy(0), None, now=NOW).ok


def test_stamp_string_is_standard_hashcash_v1():
    stamp = mint("res", EXT, make_policy(4), rng=random.Random(3), now=NOW)
    parts = stamp.string().split(":")
    assert len(parts) == 7
    assert parts[0] == "1"
    assert parts[1] == "4"
    assert parts[2] == "260101000000"  # YYMMDDhhmmss at the frozen instant
    assert parts[3] == "res"
    assert HashcashStamp.parse(stamp.string()) == stamp


def test_difficulty_checked_against_external_hash():
    # recompute the digest with hashlib directly over the stamp string
    stamp = mint("res", EXT, make_policy(10), rng=random.Random(4), now=NOW)
    digest = hashlib.sha1(stamp.string().encode()).digest()
    value = int.from_bytes(digest, "big")
    assert value >> (160 - 10) == 0
    assert leading_zero_bits(digest) >= 10


def test_flipped_character_fails():
    stamp = mint("res", EXT, make_policy(10), rng=random.Random(5), now=NOW)
    text = stamp.string()
    mutated = text[:-1] + ("x" if text[-1] != "x" else "y")
    bad = HashcashStamp.parse(mutated)
    digest = hashlib.sha1(mutated.encode()).digest()
    assert leading_zero_bits(digest) < 10 or digest != stamp.digest()
    check = verify_stamp(bad, "res", make_policy(10), None, now=NOW)
    assert not check.ok


def test_replayed_stamp_rejected():
    stamp = mint("res", EXT, make_policy(6), rng=random.Random(6), now=NOW)
    seen = ReplaySet()
    assert verify_stamp(stamp, "res", make_policy(6), seen, now=NOW).ok
    second = verify_stamp(stamp, "res", make_policy(6), seen, now=NOW)
    assert not second.ok
    assert second.code == "replayed"


def test_resource_mismatch_rejected():
    stamp = mint("res", EXT, make_policy(6), rng=random.Random(7), now=NOW)
    assert verify_stamp(stamp, "other", make_policy(6), None, now=NOW).code == "resource_mismatch"


def test_bits_below_policy_rejected():
    stamp = mint("res", EXT, make_policy(4), rng=random.Random(8), now=NOW)
    assert verify_stamp(stamp, "res", make_policy(12), None, now=NOW).code == "bits_below_policy"


def test_freshness_window():
    policy = make_policy(4)
    stamp = mint("res", EXT, policy, rng=random.Random(9), now=NOW)
    late = NOW + timedelta(seconds=policy.max_stamp_age + policy.clock_skew + 1)
    assert verify_stamp(stamp, "res", policy, None, now=late).code == "expired"
    early = NOW - timedelta(seconds=policy.clock_skew + 1)
    assert verify_stamp(stamp, "res", policy, None, now=early).code == "future_dated"
    inside = NOW + timedelta(seconds=policy.max_stamp_age)
    assert verify_stamp(stamp, "res", policy, None, now=inside).ok


def test_extension_round_trip():
    encoded = EXT.encode()
    assert encoded == f"init={'aa' * 32};resp={'bb' * 32};nonce={'cc' * 8}"
    assert ExtensionPayload.decode(encoded) == EXT
    with pytest.raises(ValueError):
        ExtensionPayload.decode("init=zz;nope")


def test_negotiation_id_matches_reference_hash():
    stamp = mint("res", EXT, make_policy(4), rng=random.Random(10), now=NOW)
    expected = hashlib.sha256(stamp.string().encode()).hexdigest()
    assert negotiation_id_from(stamp) == expected
    assert len(expected) == 64


def test_negotiation_ids_distinct():
    one = mint("res", EXT, make_policy(4), rng=random.Random(11), now=NOW)
    two = mint("res", EXT, make_policy(4), rng=random.Random(12), now=NOW)
    assert one.string() != two.string()
    assert negotiation_id_from(one) != negotiation_id_from(two)
    assert negotiation_id_from(one) == negotiation_id_from(one)


def test_mint_verify_property_at_low_bits():
    rng = random.Random(13)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
    policy = make_policy(4)
    for _ in range(1000):
        resource = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 20)))
        ext = ExtensionPayload(
            "%02x" % rng.randrange(256) * 4, "%02x" % rng.randrange(256) * 4, "ff"
        )
        stamp = mint(resource, ext, policy, rng=rng, now=NOW)
        assert verify_stamp(stamp, resource, policy, None, now=NOW).ok


def test_monotone_hardness():
    # mean attempts roughly double per extra bit; wide +-50% tolerance
    def mean_attempts(bits, seed):
        rng = random.Random(seed)
        counts = []
        for _ in range(150):
            stamp = mint("res", EXT, make_policy(bits), rng=rng, now=NOW)
            counts.append(int(stamp.counter) + 1)
        return statistics.mean(counts)

    low = mean_attempts(4, 14)
    high = mean_attempts(5, 15)
    assert 1.0 <= high / low <= 3.0


def test_verification_is_constant_cost():
    # one SHA-1 regardless of difficulty: verifying a high-bits stamp takes
    # about as long as a low-bits one
    low = mint("res", EXT, make_policy(1), rng=random.Random(16), now=NOW)
    high = mint("res", EXT, make_policy(14), rng=random.Random(17), now=NOW)

    def clock(stamp, policy):
        start = time.perf_counter()
        for _ in range(200):
            verify_stamp(stamp, "res", policy, None, now=NOW)
        return time.perf_counter() - start

    time_low = clock(low, make_policy(1))
    time_high = clock(high, make_policy(14))
    assert time_high < time_low * 5


def test_replay_set_prunes_by_expiry():
    seen = ReplaySet()
    seen.add("a", expires_at=100.0)
    seen.add("b", expires_at=200.0)
    seen.prune(now_epoch=150.0)
    assert "a" not in seen
    assert "b" in seen
    assert len(seen) == 1


def test_bad_stamp_strings_rejected():
    with pytest.raises(ValueError):
        HashcashStamp.parse("1:12:260101")
    with pytest.raises(ValueError):
        HashcashStamp.parse("2:12:260101:r:e:r:c")
    with pytest.raises(ValueError):
        mint("has:colon", EXT, make_policy(0))


two_digit_fields = st.one_of(
    st.tuples(*(st.integers(0, 99) for _ in range(6))),
    st.datetimes(min_value=datetime(1969, 1, 1), max_value=datetime(2068, 12, 31)).map(
        lambda m: (m.year % 100, m.month, m.day, m.hour, m.minute, m.second)
    ),
)


@settings(max_examples=300, deadline=None)
@given(fields=two_digit_fields)
def test_stamp_date_equals_strptime_on_twelve_digits(fields):
    text = "".join(f"{v:02d}" for v in fields)
    try:
        expected = datetime.strptime(text, "%y%m%d%H%M%S").replace(tzinfo=timezone.utc)
    except ValueError:
        assert parse_stamp_date(text) is None
    else:
        assert parse_stamp_date(text) == expected


@settings(max_examples=200, deadline=None)
@given(
    moment=st.datetimes(min_value=datetime(1969, 1, 1), max_value=datetime(2068, 12, 31)),
    unpadded=st.sets(st.integers(1, 5), min_size=1),
)
def test_stamp_date_refuses_unpadded_fields(moment, unpadded):
    values = (moment.year % 100, moment.month, moment.day, moment.hour, moment.minute,
              moment.second)
    text = "".join(str(v) if i in unpadded else f"{v:02d}" for i, v in enumerate(values))
    if len(text) == 12:
        return  # every field chosen for unpadding was two digits wide anyway
    assert parse_stamp_date(text) is None
    stamp = mint("res", EXT, make_policy(0), rng=random.Random(18), now=NOW)
    unpadded_stamp = HashcashStamp.parse(stamp.string().replace(stamp.date, text, 1))
    check = verify_stamp(unpadded_stamp, "res", make_policy(0), None, now=NOW)
    assert check.code == "date_format"


def test_stamp_date_out_of_range_or_not_ascii_is_date_format():
    stamp = mint("res", EXT, make_policy(0), rng=random.Random(19), now=NOW)
    for date in ("261301000000", "260230000000", "260101240000", "260101000060", "2601010000٠٠"):
        bad = HashcashStamp.parse(stamp.string().replace(stamp.date, date, 1))
        assert verify_stamp(bad, "res", make_policy(0), None, now=NOW).code == "date_format"
