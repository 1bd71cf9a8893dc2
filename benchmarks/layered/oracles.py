"""Plain-Python reference answers, one per query template.

Nothing here imports ``repro``: each function recomputes a template's
answer from the generated rows with dicts and loops, encoding the SQL++
rules the template exercises (absent values drop out of WHERE, SUM/AVG
skip non-numbers in permissive mode, NULL and MISSING are distinct group
keys, a MISSING attribute is omitted from the output tuple).  Results are
compared through :func:`digest`, never row by row.

Conventions: a result row is a ``dict`` (absent attribute = no key), a
nested unordered collection is a :class:`BagOf`, an ordered one a list.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, Iterable, List, Tuple

Row = Dict[str, Any]
Data = Dict[str, List[Row]]

_ABSENT = object()


class BagOf(list):
    """A nested collection whose order does not matter."""


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------


def canon(value: Any) -> str:
    """Canonical text of a plain value: key order, bag order and the
    int/float spelling of a number do not change it."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (int, float)):
        return repr(float(value)) if abs(value) < 2**53 else repr(value)
    if isinstance(value, str):
        return "s" + repr(value)
    if isinstance(value, dict):
        inner = ",".join(f"{key!r}:{canon(value[key])}" for key in sorted(value))
        return "{" + inner + "}"
    if isinstance(value, BagOf):
        return "<" + ",".join(sorted(canon(item) for item in value)) + ">"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canon(item) for item in value) + "]"
    raise TypeError(f"not a plain value: {value!r}")


def digest(rows: Iterable[Any], ordered: bool) -> Tuple[int, str]:
    """``(row count, hash)``; the hash ignores row order unless
    ``ordered``."""
    texts = [canon(row) for row in rows]
    if not ordered:
        texts.sort()
    hasher = hashlib.blake2b(digest_size=8)
    for text in texts:
        hasher.update(text.encode("utf-8"))
        hasher.update(b"\n")
    return len(texts), hasher.hexdigest()


# ---------------------------------------------------------------------------
# Shared pieces of SQL++ semantics
# ---------------------------------------------------------------------------


def _num(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _put(row: Row, name: str, value: Any) -> None:
    """Add an output attribute unless its value is MISSING."""
    if value is not _ABSENT:
        row[name] = value


def _sum(values: Iterable[Any]) -> Any:
    """Permissive SUM: non-numbers are skipped; no numbers gives NULL."""
    numbers = [value for value in values if _num(value)]
    return sum(numbers) if numbers else None


def _avg(values: Iterable[Any]) -> Any:
    numbers = [value for value in values if _num(value)]
    return sum(numbers) / len(numbers) if numbers else None


def _count(values: Iterable[Any]) -> int:
    """COUNT(expr): NULL and MISSING do not count, anything else does."""
    return sum(1 for value in values if value is not None and value is not _ABSENT)


def _groups(rows: Iterable[Row], key: Callable[[Row], Any]) -> Dict[Any, List[Row]]:
    out: Dict[Any, List[Row]] = {}
    for row in rows:
        out.setdefault(key(row), []).append(row)
    return out


# ---------------------------------------------------------------------------
# batch_analytics (orders, users)
# ---------------------------------------------------------------------------


def filter_(data: Data) -> List[Row]:
    return [
        {"oid": o["oid"], "total": o["total"]}
        for o in data["orders"]
        if _num(o.get("total")) and o["total"] > 250 and o["qty"] >= 3
    ]


def group_lo(data: Data) -> List[Row]:
    out = []
    for region, rows in _groups(
        data["orders"], lambda o: o.get("region", _ABSENT)
    ).items():
        row: Row = {}
        _put(row, "region", region)
        row["n"] = len(rows)
        row["s"] = _sum(o.get("total") for o in rows)
        row["q"] = _avg(o["qty"] for o in rows)
        out.append(row)
    return out


def group_hi(data: Data) -> List[Row]:
    return [
        {
            "uid": uid,
            "n": len(rows),
            "q": sum(o["qty"] for o in rows),
            "m": max(o["qty"] for o in rows),
        }
        for uid, rows in _groups(data["orders"], lambda o: o["user_id"]).items()
    ]


def join(data: Data) -> List[Row]:
    known = {u["uid"] for u in data["users"]}
    out = []
    for o in data["orders"]:
        if o["user_id"] in known and o["qty"] >= 6:
            row = {"uid": o["user_id"], "oid": o["oid"]}
            _put(row, "total", o.get("total", _ABSENT))
            out.append(row)
    return out


def join_group(data: Data) -> List[Row]:
    tier = {u["uid"]: u["tier"] for u in data["users"]}
    matched = [o for o in data["orders"] if o["user_id"] in tier]
    return [
        {"tier": name, "n": len(rows), "q": sum(o["qty"] for o in rows)}
        for name, rows in _groups(matched, lambda o: tier[o["user_id"]]).items()
    ]


def absent(data: Data) -> List[Row]:
    # ``x IS NOT NULL`` is false for a MISSING x in SQL-compatibility
    # mode (IS NULL covers both absent values).
    return [
        {"oid": o["oid"]}
        for o in data["orders"]
        if "total" not in o or (o.get("region") is not None and "coupon" in o)
    ]


def or_in(data: Data) -> List[Row]:
    return [
        {"oid": o["oid"]}
        for o in data["orders"]
        if o["status"] in ("new", "paid", "lost")
    ]


def exists_semi(data: Data) -> List[Row]:
    buyers = {o["user_id"] for o in data["orders"] if o["qty"] == 8}
    return [{"uid": u["uid"]} for u in data["users"] if u["uid"] in buyers]


def decorrelate(data: Data) -> List[Row]:
    per_user = _groups(data["orders"], lambda o: o["user_id"])
    return [
        {"uid": u["uid"], "q": _sum(o["qty"] for o in per_user.get(u["uid"], []))}
        for u in data["users"]
    ]


def case_arith(data: Data) -> List[Row]:
    out = []
    for o in data["orders"]:
        if o["qty"] == 4:
            continue
        total = o.get("total", _ABSENT)
        if total is None:
            price: Any = None
        elif not _num(total):
            price = _ABSENT  # mistyped or absent operand gives MISSING
        else:
            price = total * 0.5 if o["qty"] >= 5 else total + 1
        row = {"oid": o["oid"]}
        _put(row, "price", price)
        out.append(row)
    return out


def distinct(data: Data) -> List[Row]:
    seen = {(o["status"], o.get("region", _ABSENT)) for o in data["orders"]}
    out = []
    for status, region in seen:
        row = {"status": status}
        _put(row, "region", region)
        out.append(row)
    return out


def order_full(data: Data) -> List[Row]:
    rows = [o for o in data["orders"] if o["qty"] >= 7]
    rows.sort(key=lambda o: (-o["qty"], o["oid"]))
    return [{"oid": o["oid"], "qty": o["qty"]} for o in rows]


def prune_empty(data: Data) -> List[Row]:
    return []


# ---------------------------------------------------------------------------
# nested_streaming / strict_nested (hr.emp, events, prices)
# ---------------------------------------------------------------------------


def unnest(data: Data) -> List[Row]:
    return [
        {"name": e["name"], "proj": p["name"]}
        for e in data["hr.emp"]
        for p in e["projects"]
        if p["hours"] >= 30
    ]


def unnest_group(data: Data) -> List[Row]:
    projects = [p for e in data["hr.emp"] for p in e["projects"]]
    return [
        {"proj": name, "n": len(rows), "h": sum(p["hours"] for p in rows)}
        for name, rows in _groups(projects, lambda p: p["name"]).items()
    ]


def group_as(data: Data) -> List[Row]:
    return [
        {"dept": dept, "names": BagOf(e["name"] for e in rows)}
        for dept, rows in _groups(data["hr.emp"], lambda e: e["dept"]).items()
    ]


def topk(data: Data) -> List[Row]:
    rows = sorted(data["hr.emp"], key=lambda e: (-e["salary"], e["id"]))[:10]
    return [{"id": e["id"], "salary": e["salary"]} for e in rows]


def limit_early(data: Data) -> List[Row]:
    # LIMIT without ORDER BY may return any 20 qualifying rows; every
    # executor here scans in input order, and the oracle pins that.
    rows = [e for e in data["hr.emp"] if e["salary"] >= 100000][:20]
    return [{"id": e["id"]} for e in rows]


def exists_nested(data: Data) -> List[Row]:
    return [
        {"id": e["id"]}
        for e in data["hr.emp"]
        if any(p["hours"] > 35 for p in e["projects"])
    ]


def nested_select(data: Data) -> List[Row]:
    return [
        {
            "id": e["id"],
            "big": BagOf(p["name"] for p in e["projects"] if p["hours"] >= 20),
        }
        for e in data["hr.emp"]
    ]


def unpivot(data: Data) -> List[Row]:
    columns: Dict[str, List[Any]] = {}
    for day in data["prices"]:
        for symbol, price in day.items():
            if symbol != "day":
                columns.setdefault(symbol, []).append(price)
    return [
        {"sym": symbol, "avg_price": _avg(values)}
        for symbol, values in columns.items()
    ]


def hetero_group(data: Data) -> List[Row]:
    return [
        {
            "kind": kind,
            "n": len(rows),
            "avg": _avg(ev.get("latency") for ev in rows),
            "c": _count(ev.get("latency", _ABSENT) for ev in rows),
        }
        for kind, rows in _groups(data["events"], lambda ev: ev["kind"]).items()
    ]


def hetero_tags(data: Data) -> List[Row]:
    tags = [tag for ev in data["events"] for tag in ev.get("tags", ())]
    return [
        {"tag": tag, "n": len(rows)}
        for tag, rows in _groups(tags, lambda tag: tag).items()
    ]


def window_rank(data: Data) -> List[Row]:
    out = []
    for rows in _groups(data["hr.emp"], lambda e: e["dept"]).values():
        rows = sorted(rows, key=lambda e: -e["salary"])
        rank = 0
        for position, e in enumerate(rows, start=1):
            if position == 1 or e["salary"] != rows[position - 2]["salary"]:
                rank = position
            out.append({"id": e["id"], "rk": rank})
    return out


def construct(data: Data) -> List[Row]:
    out = []
    for e in data["hr.emp"]:
        row = {"who": e["name"], "n": len(e["projects"])}
        if e["projects"]:
            row["first"] = e["projects"][0]["name"]
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# ingest_query dashboards (events)
# ---------------------------------------------------------------------------


def count_by_kind(data: Data) -> List[Row]:
    return [
        {"kind": kind, "n": len(rows)}
        for kind, rows in _groups(data["events"], lambda ev: ev["kind"]).items()
    ]


def avg_latency(data: Data) -> List[Row]:
    pro = [ev for ev in data["events"] if ev.get("user", {}).get("plan") == "pro"]
    return [
        {"kind": kind, "avg": _avg(ev.get("latency") for ev in rows)}
        for kind, rows in _groups(pro, lambda ev: ev["kind"]).items()
    ]


def top_latency(data: Data) -> List[Row]:
    rows = [ev for ev in data["events"] if _num(ev.get("latency"))]
    rows.sort(key=lambda ev: (-ev["latency"], ev["id"]))
    return [{"id": ev["id"], "latency": ev["latency"]} for ev in rows[:10]]


tags_count = hetero_tags


# ---------------------------------------------------------------------------
# cli_cold_start (users)
# ---------------------------------------------------------------------------


def tier_summary(data: Data) -> List[Row]:
    return [
        {"tier": tier, "n": len(rows), "age": _avg(u["age"] for u in rows)}
        for tier, rows in _groups(data["users"], lambda u: u["tier"]).items()
    ]
