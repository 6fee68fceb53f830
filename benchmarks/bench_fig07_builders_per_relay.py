"""Figure 7: number of distinct builders submitting to each relay."""

import statistics

from repro.analysis import builders_per_relay_daily
from repro.analysis.report import render_table

from reporting import emit


def test_fig07_builders_per_relay(study, benchmark):
    per_relay = benchmark(builders_per_relay_daily, study)

    def window(counts, lo, hi):
        dates = sorted(counts)
        if not dates:
            return 0.0
        merge = dates[0]
        values = [
            count
            for date, count in counts.items()
            if lo <= (date - min(study.table.dates())).days <= hi
        ]
        return statistics.mean(values) if values else 0.0

    rows = []
    for relay in sorted(per_relay):
        counts = per_relay[relay]
        rows.append(
            [
                relay,
                round(window(counts, 0, 45), 1),
                round(window(counts, 46, 120), 1),
                round(window(counts, 121, 197), 1),
            ]
        )
    emit(
        "fig07_builders_per_relay",
        render_table(
            ["relay", "Sep-Oct", "Nov-Jan", "Feb-Mar"], rows,
            title="mean daily distinct builders submitting per relay",
        ),
    )

    by_relay = {row[0]: row for row in rows}
    # Permissionless relays attract the most builders...
    assert by_relay["Flashbots"][3] > by_relay["Blocknative"][3]
    assert by_relay["Flashbots"][3] > by_relay["Eden"][3]
    # ...and the late permissionless entrants grow builder rosters.
    assert by_relay["UltraSound"][3] > 2
    # Internal-only relays see only their own builder's pubkeys (the
    # blocknative and Eden operations rotate four keys each — Table 5).
    assert by_relay["Blocknative"][3] <= 4.5
    assert by_relay["Eden"][3] <= 4.5
    # Builder counts rise over the window for permissionless relays.
    assert by_relay["Flashbots"][3] >= by_relay["Flashbots"][1]
