# `treeplace serve` on stdin, end to end: every serve_stdin/NAME.in fixture
# is served and its stdout plus exit code compared with NAME.out.  Per-run
# timings are masked, and a stream-error line keeps only the message after
# " — " (the failed check's file:line moves with the code).
#
# Run through ctest (cli_serve_stdin_test), or by hand:
#   cmake -DTREEPLACE=build/treeplace -P tests/cli/serve_stdin_test.cmake
# Adding -DRECORD=1 rewrites the .out files from that binary instead.

file(GLOB inputs ${CMAKE_CURRENT_LIST_DIR}/serve_stdin/*.in)
set(failed 0)
foreach(input ${inputs})
  string(REGEX REPLACE "\\.in$" ".out" expected_file ${input})
  execute_process(
    COMMAND ${TREEPLACE} serve --algo update-dp --capacity 10 --threads 1
    INPUT_FILE ${input}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_QUIET)
  string(REGEX REPLACE "([a-z_]+_s)=[^ \n]+" "\\1=*" out "${out}")
  string(REGEX REPLACE "requests in [^ ]+ s \\([^ ]+ scenarios/s"
         "requests in * s (* scenarios/s" out "${out}")
  string(REGEX REPLACE "stream error: [^\n]* — " "stream error: " out "${out}")
  string(APPEND out "exit ${code}\n")
  if(RECORD)
    file(WRITE ${expected_file} "${out}")
    continue()
  endif()
  file(READ ${expected_file} expected)
  if(NOT out STREQUAL expected)
    get_filename_component(name ${input} NAME)
    message(SEND_ERROR "serve < ${name}: output differs from ${expected_file}"
                       "\n--- got ---\n${out}--- want ---\n${expected}")
    set(failed 1)
  endif()
endforeach()
if(NOT inputs)
  message(FATAL_ERROR "no fixtures under ${CMAKE_CURRENT_LIST_DIR}/serve_stdin")
endif()
if(failed)
  message(FATAL_ERROR "serve output differs from the recorded fixtures")
endif()
