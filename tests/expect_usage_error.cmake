# Runs one command-line tool invocation and passes only when it fails
# as a usage error: exit status 2 with exactly one line on stderr.
#
#   cmake -DTOOL=<executable> -DARGS=<arg>|<arg>|... -P expect_usage_error.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
string(REGEX MATCHALL "\n" newlines "${err}")
list(LENGTH newlines lines)
if(NOT rc STREQUAL "2" OR NOT lines EQUAL 1)
  message(FATAL_ERROR
          "want exit status 2 and one stderr line, got '${rc}' and:\n${err}")
endif()
