"""`python -m credmarket <subcommand>`: the same entry point as the
`credmarket` script."""

from .cli import main

main()
