"""Reading the toolkit's input files: kernel source, machine and profile JSON.

Every failure to decode a file becomes the caller's own error class with
a message that names the path, so the CLI reports it on one line.
"""

from __future__ import annotations

import json
from pathlib import Path


def read_text(path: str | Path, error: type[Exception]) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as e:
        raise error(f"{path}: {e}")


def read_json(path: str | Path, error: type[Exception]):
    text = read_text(path, error)
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise error(f"{path}: invalid JSON at offset {e.pos}: {e.msg}")
    except (ValueError, RecursionError) as e:
        # An integer past the int-digit limit, or nesting past the
        # recursion limit.
        raise error(f"{path}: {e}")
