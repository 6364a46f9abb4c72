"""Self-contained HTML run reports for fleet and cluster results.

:func:`render_report` turns the uniform ``to_dict`` payload — whether it
came from a live :class:`~repro.simulation.fleet.FleetResult` /
:class:`~repro.simulation.cluster.ClusterResult` or was re-read from a
``--json`` file — into one HTML document with zero external references:
no scripts, no fonts, no stylesheets, no URLs of any kind. The file can
be archived next to the JSON it renders and opened years later from a
``file://`` path on an air-gapped machine.

Rendering exclusively from the payload (never from simulator internals)
is what keeps the live and replayed paths identical: if a metric is not
in the JSON schema, it is not in the report.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

from repro.simulation.faults import DISRUPTIVE_FAULT_KINDS

from .charts import MAX_SERIES, PALETTE, EventMark, Series, line_chart

__all__ = ["render_report"]

_LIGHT = {
    "surface": "#fcfcfb",
    "ink": "#0b0b0b",
    "ink2": "#52514e",
    "muted": "#898781",
    "grid": "#e1e0d9",
    "baseline": "#c3c2b7",
    "critical": "#d03b3b",
}
_DARK = {
    "surface": "#1a1a19",
    "ink": "#ffffff",
    "ink2": "#c3c2b7",
    "muted": "#898781",
    "grid": "#2c2c2a",
    "baseline": "#383835",
    "critical": "#e66767",
}


def _tokens(theme: dict, slot_colors: list[str]) -> str:
    lines = [f"  --{k}: {v};" for k, v in theme.items()]
    lines += [f"  --s{i}: {c};" for i, c in enumerate(slot_colors)]
    return "\n".join(lines)


def _css() -> str:
    light = _tokens(_LIGHT, [c for c, _ in PALETTE])
    dark = _tokens(_DARK, [c for _, c in PALETTE])
    slots = "\n".join(
        f"svg path.s{i} {{ stroke: var(--s{i}); }}\n"
        f"svg circle.s{i} {{ fill: var(--s{i}); }}\n"
        f".swatch.s{i} {{ background: var(--s{i}); }}"
        for i in range(MAX_SERIES)
    )
    return f"""
:root {{
{light}
}}
@media (prefers-color-scheme: dark) {{ :root {{
{dark}
}} }}
[data-theme="light"] {{
{light}
}}
[data-theme="dark"] {{
{dark}
}}
* {{ box-sizing: border-box; }}
body {{
  margin: 0 auto; padding: 24px 20px 64px; max-width: 820px;
  background: var(--surface); color: var(--ink);
  font: 14px/1.5 system-ui, sans-serif;
}}
h1 {{ font-size: 22px; margin: 0 0 4px; }}
h2 {{ font-size: 16px; margin: 36px 0 10px; }}
h3 {{ font-size: 14px; margin: 24px 0 8px; }}
p.sub, .muted {{ color: var(--muted); }}
.sub {{ margin: 0 0 20px; }}
nav {{ margin: 12px 0 4px; color: var(--ink2); }}
nav a {{ color: var(--ink2); margin-right: 10px; }}
.tiles {{ display: flex; flex-wrap: wrap; gap: 10px; margin: 14px 0; }}
.tile {{
  border: 1px solid var(--grid); border-radius: 6px;
  padding: 8px 14px; min-width: 108px;
}}
.tile .value {{ font-size: 20px; font-weight: 600; }}
.tile .name {{ color: var(--ink2); font-size: 12px; }}
.tile.bad .value {{ color: var(--critical); }}
table {{ border-collapse: collapse; margin: 10px 0; width: 100%; }}
th, td {{
  text-align: right; padding: 4px 10px;
  border-bottom: 1px solid var(--grid); font-variant-numeric: tabular-nums;
}}
th {{ color: var(--ink2); font-weight: 600; }}
th:first-child, td:first-child {{ text-align: left; }}
td.bad {{ color: var(--critical); }}
figure.chart {{ margin: 14px 0; }}
figcaption {{ color: var(--ink2); font-weight: 600; margin-bottom: 4px; }}
svg {{ width: 100%; height: auto; display: block; }}
svg .grid {{ stroke: var(--grid); stroke-width: 1; }}
svg .axis {{ stroke: var(--baseline); stroke-width: 1; }}
svg .rule {{ stroke: var(--ink2); stroke-width: 1; stroke-dasharray: 6 3; }}
svg .event {{ stroke: var(--muted); stroke-width: 1; stroke-dasharray: 3 3; }}
svg .event-fault {{
  stroke: var(--critical); stroke-width: 1.5; stroke-dasharray: 4 3;
}}
svg text {{ fill: var(--ink2); font: 11px system-ui, sans-serif; }}
svg path {{ fill: none; stroke-width: 2; }}
{slots}
.legend {{ display: flex; flex-wrap: wrap; gap: 14px; margin-top: 6px; }}
.legend .key {{ color: var(--ink2); font-size: 12px; }}
.swatch {{
  display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin-right: 5px;
}}
footer {{ margin-top: 48px; color: var(--muted); font-size: 12px; }}
""".strip()


def _num(value, digits: int = 2) -> str:
    """Human cell text: None -> em dash, floats trimmed, ints plain."""
    if value is None:
        return "—"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e6:
            return f"{int(value):,}"
        return f"{value:,.{digits}f}"
    return escape(str(value))


def _tile(name: str, value, *, bad: bool = False, digits: int = 2) -> str:
    cls = "tile bad" if bad else "tile"
    return (
        f'<div class="{cls}"><div class="value">{_num(value, digits)}</div>'
        f'<div class="name">{escape(name)}</div></div>'
    )


def _table(headers: list[str], rows: list[list[str]]) -> str:
    head = "".join(f"<th>{escape(h)}</th>" for h in headers)
    body = "".join(f"<tr>{''.join(row)}</tr>" for row in rows)
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def _td(value, *, bad: bool = False, digits: int = 2) -> str:
    cls = ' class="bad"' if bad else ""
    return f"<td{cls}>{_num(value, digits)}</td>"


def _fault_label(event: dict) -> str:
    where = event.get("pod")
    where = f"pod {where}" if where is not None else event.get("zone") or ""
    tenant = event.get("tenant")
    prefix = f"[{tenant}] " if tenant else ""
    return (
        f"{prefix}{event['kind']} {where} @ {event['time_s']:.0f}s "
        f"(requeued {event.get('requeued', 0)}, lost {event.get('lost', 0)})"
    ).strip()


def _fault_marks(fault_events: list[dict]) -> list[EventMark]:
    return [
        EventMark(x=e["time_s"], label=_fault_label(e), kind="fault")
        for e in fault_events
    ]


def _fault_section(fault_events: list[dict], *, tenant_col: bool) -> str:
    """#faults: one table row per injected fault, icon + label (never
    color alone) on the disruptive ones."""
    if not fault_events:
        return (
            '<h2 id="faults">Faults</h2>'
            '<p class="muted">No fault events fired during this run.</p>'
        )
    headers = ["time (s)", "kind", "pod", "zone", "requeued", "lost", "effect"]
    if tenant_col:
        headers.insert(1, "tenant")
    rows = []
    for e in fault_events:
        disruptive = e["kind"] in DISRUPTIVE_FAULT_KINDS
        effect = []
        if e["kind"] == "slowdown-start":
            effect.append(f"×{e['factor']:g} slowdown")
        if e.get("restart_s") is not None:
            effect.append(f"restart {e['restart_s']:g}s")
        row = [
            _td(e["time_s"], digits=1),
            f"<td>{'⚠ ' if disruptive else ''}{escape(e['kind'])}</td>",
            _td(e.get("pod")),
            _td(e.get("zone")),
            _td(e.get("requeued"), bad=(e.get("requeued") or 0) > 0),
            _td(e.get("lost"), bad=(e.get("lost") or 0) > 0),
            f"<td>{escape(', '.join(effect)) or '—'}</td>",
        ]
        if tenant_col:
            row.insert(1, f"<td>{escape(str(e.get('tenant', '')))}</td>")
        rows.append(row)
    return f'<h2 id="faults">Faults</h2>{_table(headers, rows)}'


def _latency_table(payload: dict) -> str:
    rows = []
    for name, key in (("TTFT", "ttft"), ("Inter-token", "itl"), ("End-to-end", "e2e")):
        stats = payload[key]
        rows.append(
            [
                f"<td>{name}</td>",
                _td(stats["count"]),
                _td(stats["median_s"], digits=3),
                _td(stats["p95_s"], digits=3),
                _td(stats["p99_s"], digits=3),
                _td(stats["mean_s"], digits=3),
            ]
        )
    return _table(
        ["latency", "count", "median (s)", "p95 (s)", "p99 (s)", "mean (s)"], rows
    )


def _pods_from_scale_events(payload: dict) -> Series | None:
    """Provisioned pod count as a step series built from scale events."""
    events = payload.get("scale_events") or []
    if not events:
        return None
    x = [0.0] + [e["time_s"] for e in events]
    y = [events[0]["from_pods"]] + [e["to_pods"] for e in events]
    return Series(label="pods", x=x, y=y, slot=0, step=True)


def _render_fleet_body(payload: dict) -> str:
    out: list[str] = []
    marks = _fault_marks(payload.get("fault_events") or [])

    nav = (
        '<nav><a href="#overview">overview</a><a href="#latency">latency</a>'
        '<a href="#throughput">throughput</a>'
        '<a href="#scale-events">scale events</a><a href="#faults">faults</a>'
        '<a href="#pods">pods</a></nav>'
    )
    out.append(nav)

    out.append('<h2 id="overview">Overview</h2>')
    ttft_p95 = payload["ttft"]["p95_s"]
    out.append(
        '<div class="tiles">'
        + _tile("arrivals", payload["arrivals"])
        + _tile("completed", payload["requests_completed"])
        + _tile("shed", payload["shed"], bad=payload["shed"] > 0)
        + _tile("lost", payload["lost"], bad=payload["lost"] > 0)
        + _tile(
            "TTFT p95 (s)",
            ttft_p95,
            digits=3,
            bad=_breaches(payload, ttft_p95),
        )
        + _tile("tokens/s", payload["throughput_tokens_per_s"], digits=1)
        + _tile("pod-seconds", payload["pod_seconds"], digits=0)
        + "</div>"
    )
    out.append(
        "<p>"
        + escape(
            f"{payload['n_pods']} pods, {payload['traffic']} traffic, "
            f"{payload['router']} router, {payload['duration_s']:.0f}s "
            f"({payload['warmup_s']:.0f}s warmup)."
        )
        + "</p>"
    )
    recovery = payload.get("recovery")
    if recovery:
        rec = recovery["recovery_time_s"]
        out.append(
            "<p>"
            + escape(
                "Recovery after disruption: "
                + (f"{rec:.1f}s back under SLO" if rec is not None else "not recovered")
                + f", degraded-window SLO attainment "
                + _num(recovery["degraded_slo_attainment"], 3)
                + "."
            )
            + "</p>"
        )

    out.append('<h2 id="latency">Latency</h2>')
    series = payload.get("series")
    slo_s = (payload.get("recovery") or {}).get("slo_p95_ttft_s")
    if series:
        out.append(
            line_chart(
                [
                    Series(
                        label="TTFT p95",
                        x=series["ttft_p95"]["t"],
                        y=series["ttft_p95"]["p95_s"],
                        slot=0,
                    )
                ],
                title=f"TTFT p95 over time ({series['window_s']:.0f}s windows)",
                y_label="seconds",
                events=marks,
                y_rule=slo_s,
                y_rule_label="SLO" if slo_s is not None else "",
            )
        )
    else:
        out.append(
            '<p class="muted">No time series in this payload '
            "(run was summarised without samples).</p>"
        )
    out.append(_latency_table(payload))

    out.append('<h2 id="throughput">Throughput</h2>')
    if series:
        out.append(
            line_chart(
                [
                    Series(
                        label="throughput",
                        x=series["throughput"]["t"],
                        y=series["throughput"]["tokens_per_s"],
                        slot=2,
                    )
                ],
                title="Generated tokens per second",
                y_label="tokens/s",
                events=marks,
            )
        )
    out.append(
        "<p>"
        + escape(
            f"{payload['tokens_generated']:,} tokens generated; "
            f"{payload['admitted']:,} admitted of {payload['arrivals']:,} "
            f"arrivals ({payload['deferrals']:,} deferrals, "
            f"{payload['requeued']:,} requeued)."
        )
        + "</p>"
    )

    out.append('<h2 id="scale-events">Scale events</h2>')
    pods_series = _pods_from_scale_events(payload)
    if pods_series is not None:
        out.append(
            line_chart(
                [pods_series],
                title="Provisioned pods",
                y_label="pods",
                events=marks,
            )
        )
        rows = []
        for e in payload["scale_events"]:
            rows.append(
                [
                    _td(e["time_s"], digits=1),
                    _td(e["from_pods"]),
                    _td(e["requested"]),
                    _td(e["to_pods"], bad=bool(e["constraint"])),
                    f"<td>{escape(e['reason'])}</td>",
                    f"<td>{escape(e['constraint'] or '—')}</td>",
                ]
            )
        out.append(
            _table(
                ["time (s)", "from", "requested", "to", "reason", "constraint"],
                rows,
            )
        )
    else:
        out.append('<p class="muted">No autoscaler decisions in this run.</p>')

    out.append(_fault_section(payload.get("fault_events") or [], tenant_col=False))

    out.append('<h2 id="pods">Pods</h2>')
    rows = []
    for p in payload["per_pod"]:
        rows.append(
            [
                f"<td>{_num(p['pod'])}</td>",
                f"<td>{escape(str(p['zone']))}</td>",
                f"<td>{escape(p['state'])}</td>",
                _td(p["arrivals_routed"]),
                _td(p["requests_completed"]),
                _td(p["tokens_generated"]),
                _td(p["throughput_tokens_per_s"], digits=1),
                _td(p["queue_depth_end"]),
            ]
        )
    out.append(
        _table(
            [
                "pod",
                "zone",
                "state",
                "routed",
                "completed",
                "tokens",
                "tokens/s",
                "queue end",
            ],
            rows,
        )
    )
    return "".join(out)


def _breaches(payload: dict, ttft_p95) -> bool:
    slo_s = (payload.get("recovery") or {}).get("slo_p95_ttft_s")
    return slo_s is not None and ttft_p95 is not None and ttft_p95 > slo_s


def _render_cluster_body(payload: dict) -> str:
    out: list[str] = []
    tenants = payload["tenants"]
    fault_events = payload.get("fault_events") or []
    marks = _fault_marks(fault_events)
    series = payload.get("series") or {}

    anchors = [
        ("#overview", "overview"),
        ("#occupancy", "occupancy"),
        ("#tenants", "tenants"),
        ("#contention", "contention"),
        ("#billing", "billing"),
    ]
    if payload.get("cloud"):
        anchors.append(("#cloud", "cloud"))
    anchors.append(("#faults", "faults"))
    out.append(
        "<nav>"
        + "".join(f'<a href="{a}">{escape(t)}</a>' for a, t in anchors)
        + "</nav>"
    )

    out.append('<h2 id="overview">Overview</h2>')
    arrivals = sum(t["arrivals"] for t in tenants)
    completed = sum(t["requests_completed"] for t in tenants)
    lost = sum(t["lost"] for t in tenants)
    slo_misses = sum(1 for t in tenants if t["meets_slo"] is False)
    out.append(
        '<div class="tiles">'
        + _tile("tenants", len(tenants))
        + _tile("arrivals", arrivals)
        + _tile("completed", completed)
        + _tile("lost", lost, bad=lost > 0)
        + _tile("SLO misses", slo_misses, bad=slo_misses > 0)
        + _tile("total cost ($)", payload["total_cost"], digits=4)
        + _tile(
            "contended scale-ups",
            len(payload["contended_scale_events"]),
            bad=bool(payload["contended_scale_events"]),
        )
        + "</div>"
    )
    peak = payload["peak_occupancy"]
    capacity = payload["capacity"]
    out.append(
        "<p>"
        + escape(
            f"{payload['duration_s']:.0f}s run over "
            + ", ".join(
                f"{gpu}: peak {peak.get(gpu, 0)}/{cap} GPUs"
                for gpu, cap in sorted(capacity.items())
            )
            + "."
        )
        + "</p>"
    )

    out.append('<h2 id="occupancy">Occupancy</h2>')
    occupancy = series.get("occupancy") or {}
    if occupancy:
        gpu_series = [
            Series(label=gpu, x=data["t"], y=data["used"], slot=i, step=True)
            for i, (gpu, data) in enumerate(sorted(occupancy.items()))
        ]
        single_cap = (
            capacity[gpu_series[0].label]
            if len(gpu_series) == 1 and gpu_series[0].label in capacity
            else None
        )
        out.append(
            line_chart(
                gpu_series,
                title="GPU occupancy",
                y_label="GPUs in use",
                events=marks,
                y_rule=single_cap,
                y_rule_label="capacity" if single_cap is not None else "",
                y_top=max(capacity.values()) if capacity else None,
            )
        )
    else:
        out.append('<p class="muted">No occupancy series in this payload.</p>')

    out.append('<h2 id="tenants">Tenants</h2>')
    rows = []
    for t in tenants:
        rows.append(
            [
                f'<td><a href="#tenant-{escape(t["name"])}">'
                f'{escape(t["name"])}</a></td>',
                f"<td>{escape(t['profile'])}</td>",
                _td(t["pods_end"]),
                _td(t["arrivals"]),
                _td(t["requests_completed"]),
                _td(t["shed"], bad=t["shed"] > 0),
                _td(t["lost"], bad=t["lost"] > 0),
                _td(t["ttft_p95_s"], digits=3),
                _td(t["meets_slo"], bad=t["meets_slo"] is False),
                _td(t["cost"], digits=4),
            ]
        )
    out.append(
        _table(
            [
                "tenant",
                "profile",
                "pods end",
                "arrivals",
                "completed",
                "shed",
                "lost",
                "TTFT p95 (s)",
                "meets SLO",
                "cost ($)",
            ],
            rows,
        )
    )

    tenant_ttft = series.get("tenant_ttft_p95") or {}
    for i, t in enumerate(tenants):
        name = t["name"]
        out.append(f'<h3 id="tenant-{escape(name)}">Tenant: {escape(name)}</h3>')
        data = tenant_ttft.get(name)
        tenant_marks = [
            EventMark(x=e["time_s"], label=_fault_label(e), kind="fault")
            for e in fault_events
            if e.get("tenant") == name
        ]
        if data:
            out.append(
                line_chart(
                    [
                        Series(
                            label=name,
                            x=data["t"],
                            y=data["p95_s"],
                            slot=i % MAX_SERIES,
                        )
                    ],
                    title=f"{name}: TTFT p95 over time",
                    y_label="seconds",
                    events=tenant_marks,
                )
            )
        else:
            out.append(
                '<p class="muted">No latency series kept for this tenant.</p>'
            )
        out.append(
            "<p>"
            + escape(
                f"{t['requests_completed']:,} completed "
                f"({_num(t['throughput_tokens_per_s'], 1)} tokens/s), "
                f"{t['requeued']:,} requeued, "
                f"{t['pod_seconds']:.0f} pod-seconds"
                + (
                    f" ({t['cloud_pod_seconds']:.0f} on cloud)"
                    if t["cloud_pod_seconds"]
                    else ""
                )
                + "."
            )
            + "</p>"
        )

    out.append('<h2 id="contention">Contention</h2>')
    contended = payload["contended_scale_events"]
    if contended:
        rows = [
            [
                _td(e["time_s"], digits=1),
                f"<td>{escape(e['tenant'])}</td>",
                _td(e["from_pods"]),
                _td(e["requested"]),
                _td(e["to_pods"], bad=True),
                f"<td>{escape(e['constraint'] or '—')}</td>",
            ]
            for e in contended
        ]
        out.append(
            _table(
                ["time (s)", "tenant", "from", "requested", "granted", "constraint"],
                rows,
            )
        )
    else:
        out.append(
            '<p class="muted">No scale-up was denied or clipped by '
            "capacity during this run.</p>"
        )

    out.append('<h2 id="billing">Billing</h2>')
    if payload["total_cost"] is not None:
        rows = []
        for t in tenants:
            line = t["billing"] or {}
            tiers = ", ".join(
                f"{name} {_num(item['cost'], 4)}"
                for name, item in sorted(line.items())
                if name != "total" and item
            )
            rows.append(
                [
                    f"<td>{escape(t['name'])}</td>",
                    _td(t["pod_seconds"], digits=0),
                    _td(t["cloud_pod_seconds"], digits=0),
                    f"<td>{escape(tiers) or '—'}</td>",
                    _td(line.get("total"), digits=4),
                ]
            )
        rows.append(
            [
                "<td><strong>total</strong></td>",
                "<td></td>",
                "<td></td>",
                "<td></td>",
                _td(payload["total_cost"], digits=4),
            ]
        )
        out.append(
            _table(
                ["tenant", "pod-s", "cloud pod-s", "tier breakdown ($)", "cost ($)"],
                rows,
            )
        )
    else:
        out.append(
            '<p class="muted">No pricing table was supplied; '
            "costs are not computed.</p>"
        )

    cloud = payload.get("cloud")
    if cloud:
        out.append('<h2 id="cloud">Cloud</h2>')
        out.append(
            "<p>"
            + escape(
                f"{cloud['usage_events']} cloud usage events, "
                f"{cloud['cloud_pod_seconds_total']:.0f} cloud pod-seconds "
                "total."
            )
            + "</p>"
        )
        rows = [
            [
                f"<td>{escape(tenant)}</td>",
                f"<td>{escape(mode)}</td>",
            ]
            for tenant, mode in sorted(cloud["modes"].items())
        ]
        if rows:
            out.append(_table(["tenant", "cloud mode"], rows))
        quota = cloud.get("quota_gpus") or {}
        if quota:
            out.append(
                "<p>"
                + escape(
                    "Cloud quota: "
                    + ", ".join(
                        f"{gpu}: {n}" for gpu, n in sorted(quota.items())
                    )
                    + " GPUs."
                )
                + "</p>"
            )

    out.append(_fault_section(fault_events, tenant_col=True))
    return "".join(out)


def render_report(result, *, title: str | None = None) -> str:
    """Render a result (or its ``to_dict`` payload) to standalone HTML.

    ``result`` may be a live :class:`SimResult` or the already-parsed
    JSON payload a previous ``--json`` run wrote; both flow through the
    identical dict-driven path. Raises :class:`ValueError` for payloads
    whose ``kind`` the report does not know.
    """
    payload = result if isinstance(result, dict) else result.to_dict()
    kind = payload.get("kind")
    if kind == "fleet":
        body = _render_fleet_body(payload)
        default_title = "Fleet run report"
        subtitle = (
            f"{payload['n_pods']} pods · {payload['traffic']} traffic "
            f"· {payload['router']} router · "
            f"{payload['duration_s']:.0f}s"
        )
    elif kind == "cluster":
        body = _render_cluster_body(payload)
        default_title = "Cluster run report"
        subtitle = (
            f"{len(payload['tenants'])} tenants · "
            f"{payload['duration_s']:.0f}s"
        )
    else:
        raise ValueError(f"cannot render report for result kind {kind!r}")
    title = title or default_title
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{escape(title)}</title>\n"
        f"<style>\n{_css()}\n</style>\n"
        "</head><body>\n"
        f"<h1>{escape(title)}</h1>\n"
        f'<p class="sub">{escape(subtitle)}</p>\n'
        f"{body}\n"
        "<footer>Rendered by repro report — fully self-contained, "
        "no external resources.</footer>\n"
        "</body></html>\n"
    )
