#!/usr/bin/env bash
# Layering check for src/ (CI docs job). The source directories form a
# strict stack, lowest first:
#
#   util < nn < data < soc < perf < surrogate < core < serving
#
# A file in one of them may include (with a quoted "dir/file.h" include)
# only its own directory and the directories below it. Every offending
# include is printed as file:line and the script exits 1. A src/ directory
# missing from the stack fails too, so a new layer has to be placed in it.
set -euo pipefail

cd "$(dirname "$0")/.."

layers=(util nn data soc perf surrogate core serving)

# Position of a directory name in the stack, or -1 when it is not a layer.
rank_of() {
  local i
  for i in "${!layers[@]}"; do
    if [[ "${layers[$i]}" == "$1" ]]; then
      echo "$i"
      return
    fi
  done
  echo -1
}

fail=0
for dir in src/*/; do
  dir=${dir%/}
  layer=${dir#src/}
  rank=$(rank_of "$layer")
  if ((rank < 0)); then
    echo "UNKNOWN LAYER: $dir (add it to the stack in tools/check_layering.sh)"
    fail=1
    continue
  fi
  while IFS=: read -r file line target; do
    if (($(rank_of "$target") > rank)); then
      echo "LAYERING: $file:$line includes $target/, but $layer/ may include only: ${layers[*]:0:rank+1}"
      fail=1
    fi
  done < <(grep -rnoE '^[[:space:]]*#[[:space:]]*include[[:space:]]*"[a-z_]+/' "$dir" |
    sed -E 's/:[[:space:]]*#[[:space:]]*include[[:space:]]*"([a-z_]+)\/$/:\1/')
done

if ((fail)); then
  echo "layering check FAILED"
  exit 1
fi
echo "layering OK: ${layers[*]}"
