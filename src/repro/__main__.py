"""``python -m repro``: the ``repro`` command without an installed entry point."""

from repro.cli.main import main

raise SystemExit(main())
