"""JSON schemas for the CLI output envelopes, one per subcommand.

Frozen contract: every successful JSON emission validates against the schema
named by its command.  Errors go to stderr as {"error": {...}}.
"""

_ENVELOPE_BASE = {
    "type": "object",
    "required": ["version", "command", "seed", "params", "result"],
    "properties": {
        "version": {"type": "string"},
        "command": {"type": "string"},
        "field": {"type": ["string", "null"]},
        "seed": {"type": "integer"},
        "params": {"type": "object"},
    },
}


def _envelope(result_schema):
    schema = {**_ENVELOPE_BASE, "properties": dict(_ENVELOPE_BASE["properties"])}
    schema["properties"]["result"] = result_schema
    return schema


_INT_ARRAY = {"type": "array", "items": {"type": "integer"}}

SCHEMAS = {
    "exponents": _envelope({
        "type": "object",
        "properties": {name: _INT_ARRAY for name in
                       ("shadow", "kstar", "sprime", "ktilde", "maximal")},
        "additionalProperties": False,
    }),
    "cf": _envelope({
        "type": "object",
        "required": ["quotients", "convergents", "stopped"],
        "properties": {
            "quotients": {"type": "array", "items": {"type": "string"}},
            "convergents": {"type": "array", "items": {
                "type": "object",
                "required": ["n", "b", "a", "g"],
                "properties": {
                    "n": {"type": "integer"},
                    "b": {"type": "string"},
                    "a": {"type": "string"},
                    "g": {"type": "string"},
                    "quality": {"type": ["integer", "string", "null"]},
                },
            }},
            "stopped": {"type": ["string", "null"]},
        },
    }),
    "weyl": _envelope({
        "type": "object",
        "required": ["counts", "total", "magnitude", "normalized"],
        "properties": {
            "counts": _INT_ARRAY,
            "total": {"type": "integer"},
            "magnitude": {"type": "number"},
            "normalized": {"type": "number"},
            "is_zero": {"type": "boolean"},
            "is_full": {"type": "boolean"},
        },
    }),
    "equidist": _envelope({
        "type": "object",
        "required": ["rows", "flags"],
        "properties": {
            "rows": {"type": "array", "items": {
                "type": "object",
                "required": ["N", "sup"],
                "properties": {
                    "N": {"type": "integer"},
                    "sup": {"type": "number"},
                    "witness": {"type": ["string", "null"]},
                    "discrepancy": {"type": ["string", "null"]},
                },
            }},
            "flags": {"type": "object"},
        },
    }),
    "js": _envelope({
        "type": "object",
        "required": ["profile", "rows"],
        "properties": {
            "profile": {
                "type": "object",
                "required": ["psi", "phi", "kappa", "s_min"],
            },
            "rows": {"type": "array", "items": {
                "type": "object",
                "required": ["N", "J", "ratio"],
                "properties": {
                    "N": {"type": "integer"},
                    "J": {"type": "integer"},
                    "ratio": {"type": "string"},
                },
            }},
        },
    }),
    "probe": _envelope({
        "type": "object",
        "required": ["magnitude", "threshold", "triggered"],
        "properties": {
            "magnitude": {"type": "number"},
            "threshold": {"type": "number"},
            "triggered": {"type": "boolean"},
            "counts": _INT_ARRAY,
            "sweep": {"type": "array"},
            "best": {"type": ["object", "null"]},
        },
    }),
    "intersective": _envelope({
        "type": "object",
        "required": ["witness", "density"],
        "properties": {
            "witness": {"type": ["object", "null"]},
            "density": {"type": "string"},
            "searched_x": {"type": "integer"},
        },
    }),
    "sieve-tmn": _envelope({
        "type": "object",
        "required": ["modulus_degree", "mode", "rows"],
        "properties": {
            "modulus_degree": {"type": "integer"},
            "mode": {"type": "string"},
            "root": {"type": ["string", "null"]},
            "rows": {"type": "array", "items": {
                "type": "object",
                "required": ["N", "normalized", "exact_one"],
            }},
        },
    }),
}
