#!/usr/bin/env bash
# Runs the untraced suite N times and the traced suite once, prints the
# median, quartiles and spread of every end-to-end metric, and exits
# non-zero if the odd and the even repetitions disagree beyond the bounds.
#
#   bash bench/repeat.sh 5 [seed]
set -euo pipefail
exec bash "$(dirname "${BASH_SOURCE[0]}")/run.sh" -repeat "${1:?usage: repeat.sh N [seed]}" -seed "${2:-1}"
