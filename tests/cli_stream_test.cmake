# End-to-end CLI test of the one validation path: extends the
# cli_smoke_test.cmake flow to the full train -> validate / serve-sim
# pipeline. Both commands always stream their input, so the invariant is
# that the chunk size changes nothing: --chunk-rows 2 (three chunks of the
# tiny fixture) must give EXACTLY the same output and exit code as the
# default (one chunk). A malformed row past the first chunk must fail the
# run cleanly with the row named.
# Invoked by ctest as:
#   cmake -DDQUAG_CLI=<binary> -DFIXTURE=<csv> -DWORK_DIR=<dir>
#         -P cli_stream_test.cmake

file(MAKE_DIRECTORY ${WORK_DIR})
set(schema ${WORK_DIR}/schema.json)
set(model ${WORK_DIR}/model.ckpt)

# 1. Derive a schema template from the fixture.
execute_process(
  COMMAND ${DQUAG_CLI} schema-template --data ${FIXTURE}
  OUTPUT_FILE ${schema}
  ERROR_VARIABLE err
  RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "schema-template exited with ${code}\nstderr: ${err}")
endif()

# 2. Train a tiny checkpoint on the fixture (fast settings).
execute_process(
  COMMAND ${DQUAG_CLI} train --clean ${FIXTURE} --schema ${schema}
          --out ${model} --epochs 2 --seed 7
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "train exited with ${code}\nstderr: ${err}\n${out}")
endif()

# 3. validate: default chunking vs a chunk smaller than the data,
# byte-identical stdout and equal exit codes required.
execute_process(
  COMMAND ${DQUAG_CLI} validate --model ${model} --data ${FIXTURE} --verbose
  OUTPUT_VARIABLE one_out
  ERROR_VARIABLE err
  RESULT_VARIABLE one_code)
if(one_code GREATER 2)
  message(FATAL_ERROR "validate exited with ${one_code}\nstderr: ${err}")
endif()
execute_process(
  COMMAND ${DQUAG_CLI} validate --model ${model} --data ${FIXTURE} --verbose
          --chunk-rows 2
  OUTPUT_VARIABLE chunked_out
  ERROR_VARIABLE err
  RESULT_VARIABLE chunked_code)
if(chunked_code GREATER 2)
  message(FATAL_ERROR
          "validate --chunk-rows 2 exited with ${chunked_code}\nstderr: ${err}")
endif()
if(NOT one_code EQUAL chunked_code)
  message(FATAL_ERROR "validate exit codes differ: default=${one_code} "
                      "chunk-rows-2=${chunked_code}")
endif()
if(NOT one_out STREQUAL chunked_out)
  message(FATAL_ERROR "validate chunking parity violated:\n--- default ---\n"
                      "${one_out}\n--- chunk-rows 2 ---\n${chunked_out}")
endif()
if(NOT one_out MATCHES "instances flagged")
  message(FATAL_ERROR "unexpected validate output:\n${one_out}")
endif()

# 4. serve-sim: the deterministic summary line (flagged / dirty / monitor
# state) must not depend on the chunk size; the throughput line is
# timing-dependent and excluded.
function(extract_flagged_line text out_var)
  string(REGEX MATCH "flagged: [^\n]*" line "${text}")
  set(${out_var} "${line}" PARENT_SCOPE)
endfunction()

execute_process(
  COMMAND ${DQUAG_CLI} serve-sim --model ${model} --data ${FIXTURE}
          --threads 2 --rounds 2
  OUTPUT_VARIABLE one_out
  ERROR_VARIABLE err
  RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "serve-sim exited with ${code}\nstderr: ${err}")
endif()
execute_process(
  COMMAND ${DQUAG_CLI} serve-sim --model ${model} --data ${FIXTURE}
          --threads 2 --rounds 2 --chunk-rows 2
  OUTPUT_VARIABLE chunked_out
  ERROR_VARIABLE err
  RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR
          "serve-sim --chunk-rows 2 exited with ${code}\nstderr: ${err}")
endif()
extract_flagged_line("${one_out}" one_flagged)
extract_flagged_line("${chunked_out}" chunked_flagged)
if(one_flagged STREQUAL "")
  message(FATAL_ERROR "no flagged summary in serve-sim output:\n${one_out}")
endif()
if(NOT one_flagged STREQUAL chunked_flagged)
  message(FATAL_ERROR "serve-sim parity violated:\n  default: ${one_flagged}"
                      "\n  chunk-rows 2: ${chunked_flagged}")
endif()

# 5. A non-numeric cell in the second chunk: the first chunk is already in
# flight when the reader fails, and validate must exit 1 naming the row.
set(bad ${WORK_DIR}/bad_second_chunk.csv)
file(READ ${FIXTURE} fixture_text)
string(REPLACE "\n29," "\nnot_a_number," bad_text "${fixture_text}")
if(bad_text STREQUAL fixture_text)
  message(FATAL_ERROR "fixture changed: no third data row starting '29,'")
endif()
file(WRITE ${bad} "${bad_text}")
execute_process(
  COMMAND ${DQUAG_CLI} validate --model ${model} --data ${bad} --chunk-rows 2
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE code)
if(NOT code EQUAL 1)
  message(FATAL_ERROR "validate on a bad second chunk exited with ${code} "
                      "(want 1)\nstdout: ${out}\nstderr: ${err}")
endif()
if(NOT err MATCHES "row 3")
  message(FATAL_ERROR "validate error does not name row 3:\n${err}")
endif()

message(STATUS "cli_stream_parity OK (${one_flagged})")
