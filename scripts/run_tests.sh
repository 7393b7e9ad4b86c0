#!/bin/bash
# Full test suite with recorded output; exits with pytest's status.
[ -n "$BASH_VERSION" ] || exec bash "$0" "$@"  # pipefail needs bash
set -o pipefail
cd "$(dirname "$0")/.."
pytest tests/ 2>&1 | tee test_output.txt
