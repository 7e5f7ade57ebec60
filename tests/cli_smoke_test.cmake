# End-to-end smoke test for the dquag CLI schema-template path.
# Invoked by ctest as:
#   cmake -DDQUAG_CLI=<binary> -DFIXTURE=<csv> -P cli_smoke_test.cmake
# Runs the CLI on a tiny CSV fixture and checks the guessed schema: numeric
# columns (including one with an empty cell) must come back "numeric" and
# string columns "categorical". A flag the command does not read must fail
# the run with exit code 1 and name the flag.

execute_process(
  COMMAND ${DQUAG_CLI} schema-template --data ${FIXTURE}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE code)

if(NOT code EQUAL 0)
  message(FATAL_ERROR
          "dquag schema-template exited with ${code}\nstderr: ${err}")
endif()

foreach(needle
        "\"columns\""
        "\"name\": \"age\""
        "\"name\": \"income\""
        "\"name\": \"city\""
        "\"name\": \"churned\""
        "\"type\": \"categorical\"")
  if(NOT out MATCHES "${needle}")
    message(FATAL_ERROR "expected '${needle}' in schema output:\n${out}")
  endif()
endforeach()

# age, income, churned must all be guessed numeric (income has an empty cell).
string(REGEX MATCHALL "\"type\": \"numeric\"" numeric_hits "${out}")
list(LENGTH numeric_hits numeric_count)
if(NOT numeric_count EQUAL 3)
  message(FATAL_ERROR
          "expected 3 numeric columns, got ${numeric_count}:\n${out}")
endif()

execute_process(
  COMMAND ${DQUAG_CLI} schema-template --data ${FIXTURE} --quantized-margin 3
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE code)
if(NOT code EQUAL 1)
  message(FATAL_ERROR
          "schema-template with an unknown flag exited with ${code} (want 1)")
endif()
if(NOT err MATCHES "unknown flag --quantized-margin for schema-template")
  message(FATAL_ERROR "unknown-flag error does not name the flag:\n${err}")
endif()

message(STATUS "cli_schema_template_smoke OK")
