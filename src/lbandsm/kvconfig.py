"""Flat key-value configuration text.

Format: one `key = value` per line, whole-line `#` comments, blank lines
ignored. Dotted keys express sections (`site.north.clay_fraction = 0.2`).
Values are kept as strings; KeyValueMap's typed lookups are the one place
that turns them into values and reports a bad one.
"""

import functools
from importlib import resources

from .errors import ConfigError, DataError, read_text


@functools.cache
def _enum_parse(enum_cls):
    """The parse of a str Enum's values in any case (a value that no member
    has reaches `enum_cls`, which raises the ValueError), and its error text."""
    members = {member.lower(): member for member in enum_cls}
    return (lambda value: members.get(value.lower()) or enum_cls(value),
            "{key} must be one of " + ", ".join(members.values()) + ", got {value!r}")


class KeyValueMap:
    """Parsed key-value file with typed lookups and prefix slicing; each
    lookup is recorded by its full key in a set that sections share."""

    def __init__(self, entries, source="<config>", prefix="", looked_up=None):
        self.entries = dict(entries)
        self.source = source
        self.prefix = prefix
        self.looked_up = set() if looked_up is None else looked_up

    def raw(self, key, default=None):
        self.looked_up.add(self.prefix + key)
        return self.entries.get(key, default)

    def require(self, key):
        if key not in self.entries:
            raise ConfigError(f"{self.source}: missing required key {key!r}")
        return self.raw(key)

    def _typed(self, key, default, parse, what):
        """`parse` of the value of `key`, or `default` when it is unset; a
        value that `parse` rejects with a ValueError is a ConfigError
        whose text is `what` formatted with the key and the value."""
        value = self.raw(key)
        if value is None:
            return default
        try:
            return parse(value)
        except ValueError:
            raise ConfigError(f"{self.source}: " + what.format(key=key, value=value)) from None

    def get_float(self, key, default=None):
        return self._typed(key, default, float, "key {key!r} is not a number: {value!r}")

    def get_int(self, key, default=None):
        return self._typed(key, default, int, "key {key!r} is not an integer: {value!r}")

    def get_floats(self, key):
        """Comma- or space-separated list of numbers; [] when unset."""
        return self._typed(key, [], lambda v: list(map(float, v.replace(",", " ").split())),
                           "key {key!r} is not a number list: {value!r}")

    def get_enum(self, key, enum_cls, default=None):
        """The member of the str Enum `enum_cls` whose value matches the
        value of `key` in any case; without a default the key is required."""
        if default is None:
            self.require(key)
        return self._typed(key, default, *_enum_parse(enum_cls))

    def get_list(self, key):
        """Comma-separated list value; [] when unset."""
        return [item.strip() for item in self.raw(key, "").split(",") if item.strip()]

    def section(self, prefix):
        """Sub-map of keys under `prefix.`, with the prefix stripped."""
        dot = prefix + "."
        sub = {k[len(dot):]: v for k, v in self.entries.items() if k.startswith(dot)}
        return KeyValueMap(sub, source=f"{self.source}[{prefix}]",
                           prefix=self.prefix + dot, looked_up=self.looked_up)

    def group_names(self, prefix=None):
        """First-level child names under `prefix.` (of every key without
        a prefix) in file order."""
        dot = "" if prefix is None else prefix + "."
        names = (key[len(dot):].split(".", 1)[0] for key in self.entries if key.startswith(dot))
        return list(dict.fromkeys(names))

    def keys(self):
        return self.entries.keys()


def parse_kv_text(text, source="<config>"):
    entries = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{line_no}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{source}:{line_no}: empty key")
        if key in entries:
            raise ConfigError(f"{source}:{line_no}: duplicate key {key!r}")
        entries[key] = value.strip()
    return KeyValueMap(entries, source=source)


@functools.cache
def read_package_text(name):
    """The text of the file `name` shipped in the package, read once."""
    return resources.files("lbandsm").joinpath(name).read_text()


def read_kv_file(path):
    """The KeyValueMap of a UTF-8 file; a file that cannot be read or
    decoded is a ConfigError naming it (and the line of a bad byte)."""
    try:
        text = read_text(path)
    except DataError as exc:
        raise ConfigError(str(exc)) from None
    return parse_kv_text(text, source=str(path))
