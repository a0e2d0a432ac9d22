"""Exception types shared across the package, and the reading of input
files: the text of a file, its header and its records, each fault of
which is a DataError naming the path and, where it has one, the line."""

import csv
import io


class DomainError(ValueError):
    """An input value is outside the physically meaningful range."""


class ConfigError(Exception):
    """A configuration file is missing, inconsistent, or incomplete."""


class DataError(Exception):
    """An input data file is malformed.

    Carries optional path/line context so batch drivers can point at the
    offending record.
    """

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        if path is not None:
            message = f"{path}: {message}" if line is None else f"{path}:{line}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def decode_text(data, path):
    """The UTF-8 text of bytes read from `path`, without the one byte-order
    mark that spreadsheet exports put first. A byte sequence that is not
    UTF-8 is a DataError naming the path and the line it is on."""
    try:
        # stripped after decoding, so that error offsets count every byte
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise DataError(str(exc), path=path,
                        line=data[:exc.start].count(b"\n") + 1) from None


def read_text(path):
    """The UTF-8 text of a data file, decoded by decode_text. A file that
    cannot be read (missing, a directory, no permission) is a DataError
    naming the path."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read: {exc.strerror}", path=path) from None
    return decode_text(data, path)


def split_header(text, path=None):
    """(header, body) of CSV text: the stripped fields of its first record
    and the text after that record; header is None when there is no
    record. A first record that csv cannot read is a DataError at line 1
    of `path`."""
    size = 1024
    try:
        while True:     # read from a prefix that holds the record, not a copy of all
            buf = io.StringIO(text[:size], newline="")
            header = next(csv.reader(buf), None)
            if buf.tell() < size or size >= len(text):
                break
            size *= 16
    except csv.Error as exc:    # as a field longer than csv.field_size_limit()
        raise DataError(str(exc), path=path, line=1) from None
    if header is None:
        return None, ""
    return tuple(col.strip() for col in header), text[buf.tell():]


def csv_records(body, n_fields, parse, path=None):
    """(line, parse(fields)) of each record of the CSV text that follows a
    header line, the first record being line 2 of `path`; a blank record
    (no field, or one of whitespace only) is skipped. A record of other
    than `n_fields` fields, one that csv cannot read, or one that parse
    rejects with a ValueError (DomainError included) is a DataError at its line."""
    line = 1
    try:
        for line, fields in enumerate(csv.reader(io.StringIO(body, newline="")), start=2):
            if not fields or (len(fields) == 1 and not fields[0].strip()):
                continue
            try:
                if len(fields) != n_fields:
                    raise ValueError(f"expected {n_fields} fields, got {len(fields)}")
                value = parse(fields)
            except ValueError as exc:
                raise DataError(str(exc), path=path, line=line) from None
            yield line, value
    except csv.Error as exc:    # raised reading the record after `line`
        raise DataError(str(exc), path=path, line=line + 1) from None
