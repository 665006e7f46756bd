# Runs one command-line tool invocation and passes only when it fails
# cleanly: exit status STATUS (default 2, a usage error) with exactly
# one line on stderr; with QUIET set, stdout must be empty too.
#
#   cmake -DTOOL=<executable> -DARGS=<arg>|<arg>|... [-DSTATUS=<n>]
#         [-DQUIET=ON] -P expect_usage_error.cmake
if(NOT STATUS)
  set(STATUS 2)
endif()
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
string(REGEX MATCHALL "\n" newlines "${err}")
list(LENGTH newlines lines)
if(NOT rc STREQUAL "${STATUS}" OR NOT lines EQUAL 1)
  message(FATAL_ERROR
          "want exit status ${STATUS} and one stderr line, got '${rc}' and:\n${err}")
endif()
if(QUIET AND NOT out STREQUAL "")
  message(FATAL_ERROR "want empty stdout, got:\n${out}")
endif()
