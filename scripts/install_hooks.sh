#!/usr/bin/env bash
# Opt-in developer hook installer. Writes a pre-commit hook that runs
# flb_analyze + clang-format over the STAGED C++ files only —
# the same checks the CI lint job runs over the whole tree, scoped down so
# a commit stays fast. Nothing in the build or CI depends on this; it is
# purely a local early-warning net.
#
# Usage:
#   ./scripts/install_hooks.sh              # install / refresh
#   ./scripts/install_hooks.sh --uninstall  # remove (only our hook)
#
# The hook respects FLB_HOOK_BUILD_DIR (default: build) for the prebuilt
# flb_analyze binary and builds it on first use if missing. Bypass a single commit
# with `git commit --no-verify`.
set -euo pipefail
cd "$(dirname "$0")/.."

MARKER="# flb-pre-commit-hook v1"
HOOK="$(git rev-parse --git-path hooks)/pre-commit"

if [ "${1:-}" = "--uninstall" ]; then
  if [ -f "$HOOK" ] && grep -qF "$MARKER" "$HOOK"; then
    rm "$HOOK"
    echo "install_hooks: removed $HOOK"
  else
    echo "install_hooks: no flb hook installed at $HOOK, nothing to do"
  fi
  exit 0
fi

if [ -f "$HOOK" ] && ! grep -qF "$MARKER" "$HOOK"; then
  echo "install_hooks: $HOOK exists and is not ours; refusing to overwrite" >&2
  exit 1
fi

mkdir -p "$(dirname "$HOOK")"
cat > "$HOOK" <<EOF
#!/usr/bin/env bash
$MARKER  (installed by scripts/install_hooks.sh; edit there, not here)
# Lints the staged versions of changed C++ files: flb_analyze (FLB001-009,
# with the checked-in layering exceptions and baseline), and clang-format
# when available. Skip once: --no-verify.
set -euo pipefail
repo="\$(git rev-parse --show-toplevel)"
build="\${FLB_HOOK_BUILD_DIR:-\$repo/build}"

mapfile -t staged < <(git diff --cached --name-only --diff-filter=ACMR -- \\
  '*.h' '*.cc' '*.cpp' | grep -E '^(src|tools|bench)/' || true)
if [ "\${#staged[@]}" -eq 0 ]; then
  exit 0
fi

analyze="\$build/tools/flb_analyze/flb_analyze"
if [ ! -x "\$analyze" ]; then
  echo "pre-commit: building flb_analyze (first run)..."
  cmake -S "\$repo" -B "\$build" >/dev/null
  cmake --build "\$build" -j --target flb_analyze >/dev/null
fi

# Check the staged blobs, not the working tree: a partially staged file is
# checked as it will be committed.
tmp="\$(mktemp -d)"
trap 'rm -rf "\$tmp"' EXIT
git checkout-index --prefix="\$tmp/" -- "\${staged[@]}"
cd "\$tmp"

"\$analyze" \\
  --exceptions "\$repo/tools/flb_analyze/layering_exceptions.txt" \\
  --baseline "\$repo/tools/flb_analyze/analyze_baseline.txt" \\
  "\${staged[@]}"

if command -v clang-format >/dev/null 2>&1; then
  clang-format --dry-run -Werror "\${staged[@]}"
fi
EOF
chmod +x "$HOOK"
echo "install_hooks: installed $HOOK"
echo "install_hooks: bypass once with 'git commit --no-verify';" \
     "remove with './scripts/install_hooks.sh --uninstall'"
