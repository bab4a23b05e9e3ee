"""Uniform result reports: a command, its parameters, a list of per-check
records, and stabilization certificates, rendered deterministically as
aligned text or canonical JSON.

Every record carries a verdict in {"pass", "fail", "inconclusive"}; a fail
record carries a witness.  The exit status of a report is 1 if any check
failed, else 3 if any check is inconclusive, else 0.
"""

import json
from dataclasses import dataclass, field

from .scalars import Q, rat_to_str


def jsonable(v):
    """Recursively convert values (including exact rationals and sparse
    vectors) into JSON-serializable data with rationals as strings.

    A dict with a key that is not a string is a sparse vector: each of its
    values is a coefficient, ``int`` or ``Q``, and renders as a string.  A
    bare ``int`` elsewhere is an index or a count and stays a number."""
    if isinstance(v, bool) or v is None or isinstance(v, (int, str)):
        return v
    if isinstance(v, Q):
        return rat_to_str(v)
    if isinstance(v, dict):
        items = sorted(v.items(), key=lambda t: str(t[0]))
        if all(isinstance(k, str) for k in v):
            return {k: jsonable(x) for k, x in items}
        return {str(k): rat_to_str(x) for k, x in items}
    if isinstance(v, (list, tuple)):
        return [jsonable(x) for x in v]
    return str(v)


@dataclass
class Report:
    command: str
    params: dict
    records: list
    certificates: dict = field(default_factory=dict)

    @property
    def status(self):
        verdicts = [r.get("verdict") for r in self.records]
        if "fail" in verdicts:
            return 1
        if "inconclusive" in verdicts:
            return 3
        return 0

    @property
    def verdict(self):
        return {0: "pass", 1: "fail", 3: "inconclusive"}[self.status]

    def to_json(self):
        doc = {
            "command": self.command,
            "params": jsonable(self.params),
            "records": [jsonable(r) for r in self.records],
            "certificates": jsonable(self.certificates),
            "verdict": self.verdict,
            "status": self.status,
        }
        return json.dumps(doc, indent=2, sort_keys=True,
                          ensure_ascii=False) + "\n"

    def to_text(self):
        lines = ["command: %s" % self.command]
        if self.params:
            lines.append("params:  " + _kv(self.params))
        width = max((len(str(r.get("name", ""))) for r in self.records),
                    default=0)
        for r in self.records:
            rest = {k: v for k, v in r.items()
                    if k not in ("name", "verdict")}
            body = _kv(rest)
            line = "  %-*s  %-12s %s" % (width, r.get("name", ""),
                                         r.get("verdict", ""), body)
            lines.append(line.rstrip())
        if self.certificates:
            lines.append("certificates: " + _kv(self.certificates))
        lines.append("status: %s (%d)" % (self.verdict, self.status))
        return "\n".join(lines) + "\n"

    def render(self, fmt):
        return self.to_json() if fmt == "json" else self.to_text()


def _kv(d):
    parts = []
    for k in d:
        v = jsonable(d[k])
        if isinstance(v, (dict, list)):
            v = json.dumps(v, sort_keys=True, ensure_ascii=False)
        parts.append("%s=%s" % (k, v))
    return " ".join(parts)


def record(name, verdict, **extra):
    r = {"name": name, "verdict": verdict}
    r.update(extra)
    return r


def violations_record(name, bad, max_witnesses=3):
    """A record from a checker's violation list; fails iff nonempty, and
    then carries the first violations as witnesses."""
    if not bad:
        return record(name, "pass", violations=0)
    return record(name, "fail", violations=len(bad),
                  witness=[jsonable(b) for b in bad[:max_witnesses]])
