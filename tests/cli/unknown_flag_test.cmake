# Unknown flags are usage errors: `treeplace` must exit 2 and name the
# flag instead of dropping it.  A dropped value-less flag would also take
# the next argument as its value (`--contract --threads 1` loses both).
#
# Run through ctest (cli_unknown_flag_test), or by hand:
#   cmake -DTREEPLACE=build/treeplace -P tests/cli/unknown_flag_test.cmake

function(expect_unknown_flag flag)
  execute_process(
    COMMAND ${TREEPLACE} ${ARGN}
    INPUT_FILE /dev/null
    RESULT_VARIABLE code
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "treeplace ${ARGN}: exit ${code}, expected 2")
  endif()
  if(NOT err MATCHES "error: unknown flag --${flag}\n")
    message(FATAL_ERROR "treeplace ${ARGN}: stderr does not name "
                        "--${flag}:\n${err}")
  endif()
endfunction()

expect_unknown_flag(contract serve --algo update-dp --contract --threads 1)
expect_unknown_flag(bogus solve --algo greedy --capacity 10 --bogus 1)
