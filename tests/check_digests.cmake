# Reruns one checker profile's digest sweep and diffs it against the
# checked-in table (docs/TESTING.md, "Digest table"). The table's line
# count is the seed count: seeds 1..N.
#
#   cmake -DCHECK=<mams_check> -DPROFILE=<profile> -DTABLE=<table.txt>
#         -DOUT=<fresh.txt> -P check_digests.cmake
file(STRINGS "${TABLE}" expected)
list(LENGTH expected seeds)
execute_process(
  COMMAND "${CHECK}" --profile "${PROFILE}" --seeds ${seeds} --digests
  OUTPUT_FILE "${OUT}"
  ERROR_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mams_check --digests exited ${rc}")
endif()
file(STRINGS "${OUT}" actual)
if(NOT actual STREQUAL expected)
  set(moved 0)
  foreach(line IN LISTS actual)
    list(FIND expected "${line}" at)
    if(at EQUAL -1)
      math(EXPR moved "${moved} + 1")
      if(moved LESS_EQUAL 10)
        message("  moved: ${line}")
      endif()
    endif()
  endforeach()
  message(FATAL_ERROR
    "${PROFILE}: ${moved} of ${seeds} seeds changed behaviour against "
    "${TABLE} (fresh sweep in ${OUT}). A change that means to alter "
    "behaviour regenerates the table; see docs/TESTING.md.")
endif()
message("${PROFILE}: ${seeds} seeds match the digest table")
