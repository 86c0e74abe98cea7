# Runs mams_check with one malformed flag and requires exit code 2: a
# numeric value that is not a whole integer or lies below the flag's
# minimum, or a profile or mutation its table does not name, must stop the run
# before anything is swept.
#
#   cmake -DCHECK=<mams_check> -DFLAG=<--flag> -DVALUE=<value>
#         -P check_bad_flag.cmake
execute_process(
  COMMAND "${CHECK}" --seeds 1 ${FLAG} ${VALUE}
  OUTPUT_QUIET
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "mams_check ${FLAG} ${VALUE} exited ${rc}, wanted 2")
endif()
message("mams_check ${FLAG} ${VALUE}: exit 2: ${err}")
