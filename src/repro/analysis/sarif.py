"""SARIF 2.1.0 output for lint findings (``repro lint --format sarif``).

SARIF (Static Analysis Results Interchange Format) is what GitHub code
scanning ingests to annotate findings inline on pull requests.  The
emitted log is one ``run`` of one ``tool``:

* ``tool.driver.rules`` carries every known rule id with its title, so
  viewers can group findings by rule without a side-channel.
* Each finding becomes one ``result`` with ``ruleId``, a text
  ``message`` and one ``physicalLocation``; the call ``chain`` of the
  whole-program rules rides along as a result property (SARIF's
  designated extension point), keeping the core schema untouched.

The ``--format json`` payload is a separate, stable contract (see
``Finding.to_dict``); SARIF is additive and may grow properties over
time without breaking it.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from repro.analysis.linter import Finding

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

TOOL_NAME = "repro-lint"
TOOL_URI = "https://github.com/paper-repro/large-pages-numa"


def _known_rules() -> Dict[str, str]:
    """rule id -> short title, for ``tool.driver.rules``."""
    from repro.analysis.deep import ALL_DEEP_RULES
    from repro.analysis.rules import default_rules

    rules: Dict[str, str] = {}
    for rule in default_rules():
        rules[rule.rule_id] = rule.title
    for rule_cls in ALL_DEEP_RULES:
        rules[rule_cls.rule_id] = rule_cls.title
    # Harness pseudo-rules for unreadable / unparsable files.
    rules.setdefault("E000", "unreadable file")
    rules.setdefault("E001", "syntax error")
    return rules


def _uri(path: str) -> str:
    """Forward-slash relative-style URI for a finding path."""
    return path.replace("\\", "/").lstrip("/")


def to_sarif(findings: Sequence[Finding]) -> Dict[str, object]:
    """Build the SARIF 2.1.0 log object for a list of findings."""
    known = _known_rules()
    used = sorted({f.rule for f in findings} | set(known))
    rules: List[Dict[str, object]] = []
    index: Dict[str, int] = {}
    for rule_id in used:
        index[rule_id] = len(rules)
        descriptor: Dict[str, object] = {"id": rule_id}
        title = known.get(rule_id)
        if title:
            descriptor["shortDescription"] = {"text": title}
        rules.append(descriptor)
    results: List[Dict[str, object]] = []
    for finding in findings:
        result: Dict[str, object] = {
            "ruleId": finding.rule,
            "ruleIndex": index[finding.rule],
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": _uri(finding.path)},
                        "region": {
                            # SARIF requires lines/columns >= 1; the
                            # harness uses 0 for whole-file findings.
                            "startLine": max(finding.line, 1),
                            "startColumn": max(finding.col, 1),
                        },
                    }
                }
            ],
        }
        if finding.chain:
            result["properties"] = {"chain": list(finding.chain)}
        results.append(result)
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "informationUri": TOOL_URI,
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }


def format_sarif(findings: Sequence[Finding]) -> str:
    """Serialised SARIF log (what ``--format sarif`` prints)."""
    return json.dumps(to_sarif(findings), indent=2)
