"""Flat key-value configuration text.

Format: one `key = value` per line, `#` comments, blank lines ignored.
Dotted keys express sections (`site.north.clay_fraction = 0.2`). Values
are kept as strings; typed accessors live on KeyValueMap.
"""

from .errors import ConfigError, DataError, read_text


class KeyValueMap:
    """Parsed key-value file with typed lookups and prefix slicing."""

    def __init__(self, entries, source="<config>"):
        self.entries = dict(entries)
        self.source = source

    def raw(self, key, default=None):
        return self.entries.get(key, default)

    def require(self, key):
        if key not in self.entries:
            raise ConfigError(f"{self.source}: missing required key {key!r}")
        return self.raw(key)

    def get_str(self, key, default=None):
        value = self.raw(key)
        return default if value is None else value

    def get_float(self, key, default=None):
        value = self.raw(key)
        if value is None:
            return default
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"{self.source}: key {key!r} is not a number: {value!r}") from None

    def get_int(self, key, default=None):
        value = self.raw(key)
        if value is None:
            return default
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"{self.source}: key {key!r} is not an integer: {value!r}") from None

    def get_list(self, key, default=()):
        """Comma-separated list value."""
        value = self.raw(key)
        if value is None:
            return list(default)
        return [item.strip() for item in value.split(",") if item.strip()]

    def get_floats(self, key, default=()):
        """Comma- or space-separated list of numbers."""
        value = self.raw(key)
        if value is None:
            return list(default)
        parts = value.replace(",", " ").split()
        try:
            return [float(p) for p in parts]
        except ValueError:
            raise ConfigError(f"{self.source}: key {key!r} is not a number list: {value!r}") from None

    def section(self, prefix):
        """Sub-map of keys under `prefix.`, with the prefix stripped."""
        dot = prefix + "."
        sub = {k[len(dot):]: v for k, v in self.entries.items() if k.startswith(dot)}
        return KeyValueMap(sub, source=f"{self.source}[{prefix}]")

    def group_names(self, prefix):
        """First-level child names under `prefix.` in file order."""
        dot = prefix + "."
        seen = []
        for key in self.entries:
            if key.startswith(dot):
                name = key[len(dot):].split(".", 1)[0]
                if name not in seen:
                    seen.append(name)
        return seen

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


def read_kv_file(path):
    """The KeyValueMap of a UTF-8 file; a file that cannot be read or
    decoded is a ConfigError naming it (and the line of a bad byte)."""
    try:
        text = read_text(path)
    except DataError as exc:
        raise ConfigError(str(exc)) from None
    return parse_kv_text(text, source=str(path))
