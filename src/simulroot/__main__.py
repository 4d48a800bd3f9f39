"""``python -m simulroot``: the ``simulroot`` command."""

from .cli import app

app()
