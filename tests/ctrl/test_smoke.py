"""The measurement record of the streaming smoke harness
(``python -m repro.ctrl.smoke``)."""

import pytest

pytest.importorskip("numpy", exc_type=ImportError)

from repro.ctrl.smoke import replay_stream


def test_replay_record_reports_minor_faults():
    """A 256 KiB replay in 64 KiB chunks reports every field, the minor
    page faults of ``submit_source`` and ``flush`` among them."""
    record = replay_stream(256 * 1024, chunk_bytes=64 * 1024)
    assert set(record) == {
        "bytes_streamed", "chunk_bytes", "transactions", "beats",
        "channels", "byte_lanes", "window", "backend", "elapsed_s",
        "tx_per_s", "minor_faults", "max_rss_mib"}
    assert record["bytes_streamed"] == 256 * 1024
    assert type(record["minor_faults"]) is int
    assert record["minor_faults"] >= 0
